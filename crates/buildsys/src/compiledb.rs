//! Compile-command databases (the `compile_commands.json` analogue).
//!
//! The behavioural approach of Section 4.2 compares *compilation instructions per
//! target*, not build-system internals: two configurations whose commands for a target
//! are identical can share one IR file. This module provides the command representation
//! plus the identity that comparison uses ([`CompileCommand::canonical_key`]: flags
//! sorted, the build directory normalised out of include paths).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;
use xaas_xir::CompileFlags;

/// One compile command: produce `output` from `file` within `target`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileCommand {
    /// Build directory the command runs in.
    pub directory: String,
    /// Target (executable/library) the object belongs to.
    pub target: String,
    /// Source file path.
    pub file: String,
    /// Output object path.
    pub output: String,
    /// Compiler arguments (excluding the compiler executable itself).
    pub arguments: Vec<String>,
}

impl CompileCommand {
    /// The classified view of the arguments.
    pub fn flags(&self) -> CompileFlags {
        CompileFlags::parse(self.arguments.iter().cloned())
    }

    /// The canonical identity of this command for exact comparison: the file, then
    /// its non-blank arguments sorted, with the build directory rewritten to
    /// `<build-dir>` wherever an argument contains it (configurations built in
    /// different directories compare equal). Only a rewritten argument is copied.
    pub fn canonical_key(&self) -> String {
        let directory = self.directory.as_str();
        let mut args: Vec<Cow<'_, str>> = self
            .arguments
            .iter()
            .filter(|a| !a.trim().is_empty())
            .map(|a| {
                if a.contains(directory) {
                    Cow::Owned(a.replace(directory, "<build-dir>"))
                } else {
                    Cow::Borrowed(a.as_str())
                }
            })
            .collect();
        args.sort_unstable();
        let len = self.file.len() + 1 + args.iter().map(|a| a.len() + 1).sum::<usize>();
        let mut key = String::with_capacity(len);
        key.push_str(&self.file);
        key.push('|');
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                key.push(' ');
            }
            key.push_str(arg);
        }
        key
    }
}

/// A database of compile commands produced by configuring one build configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileDatabase {
    /// Label of the configuration that produced this database.
    pub configuration: String,
    /// The commands.
    pub commands: Vec<CompileCommand>,
}

impl CompileDatabase {
    /// Number of translation units (one command each).
    pub fn translation_units(&self) -> usize {
        self.commands.len()
    }

    /// All distinct target names.
    pub fn targets(&self) -> Vec<String> {
        let set: BTreeSet<String> = self.commands.iter().map(|c| c.target.clone()).collect();
        set.into_iter().collect()
    }

    /// Serialise in a `compile_commands.json`-like format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.commands).expect("commands serialise")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(dir: &str, file: &str, args: &[&str]) -> CompileCommand {
        CompileCommand {
            directory: dir.to_string(),
            target: "app".to_string(),
            file: file.to_string(),
            output: format!("{file}.o"),
            arguments: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn canonical_key_sorts_flags_and_strips_build_dir() {
        let a = command(
            "/build/cfg1",
            "a.ck",
            &["-O3", "-DGMX_MPI", "-I/build/cfg1/include"],
        );
        let b = command(
            "/build/cfg2",
            "a.ck",
            &["-DGMX_MPI", "-O3", "-I/build/cfg2/include"],
        );
        assert_ne!(a.arguments, b.arguments);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(
            a.canonical_key(),
            "a.ck|-DGMX_MPI -I<build-dir>/include -O3"
        );
        // Blank arguments drop out; ISA flags and definitions stay in the identity.
        let blank = command("/b", "a.ck", &["-O3", "  ", "-mavx512f"]);
        assert_eq!(blank.canonical_key(), "a.ck|-O3 -mavx512f");
        let sse = command("/b", "a.ck", &["-O3", "-msse4.1"]);
        assert_ne!(blank.canonical_key(), sse.canonical_key());
        assert_eq!(command("/b", "a.ck", &[]).canonical_key(), "a.ck|");
    }

    #[test]
    fn database_queries() {
        let mut db = CompileDatabase {
            configuration: "default".into(),
            commands: vec![],
        };
        db.commands.push(command("/b", "a.ck", &["-O3"]));
        let mut second = command("/b", "b.ck", &["-O3"]);
        second.target = "lib".into();
        db.commands.push(second);
        assert_eq!(db.translation_units(), 2);
        assert_eq!(db.targets(), vec!["app".to_string(), "lib".to_string()]);
        assert!(db.to_json().contains("a.ck"));
    }
}
