//! Compile-command databases (the `compile_commands.json` analogue).
//!
//! The behavioural approach of Section 4.2 compares *compilation instructions per
//! target*, not build-system internals: two configurations whose commands for a target
//! are identical can share one IR file. This module provides the command representation
//! plus the identity that comparison uses ([`CompileCommand::canonical_key`]: flags
//! sorted, the build directory normalised out of include paths).

use crate::project::SourceSpec;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use xaas_xir::CompileFlags;

/// One compile command: produce `output` from `source` within `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileCommand<'p> {
    /// Build directory the command runs in.
    pub directory: &'p str,
    /// Target (executable/library) the object belongs to.
    pub target: &'p str,
    /// The project's source (or custom-target product) it compiles.
    pub source: &'p SourceSpec,
    /// Output object path.
    pub output: String,
    /// Compiler arguments (excluding the compiler executable itself). The commands of
    /// one configuration whose target and source add the same extra flags share one
    /// list; an argument the project holds is borrowed from it.
    pub arguments: Arc<[Cow<'p, str>]>,
}

impl<'p> CompileCommand<'p> {
    /// The path of the source it compiles.
    pub fn file(&self) -> &'p str {
        &self.source.path
    }

    /// The classified view of the arguments.
    pub fn flags(&self) -> CompileFlags {
        CompileFlags::parse(self.arguments.iter().map(|argument| argument.as_ref()))
    }

    /// The canonical identity of the arguments: the non-blank ones sorted, with the
    /// build directory rewritten to `<build-dir>` wherever an argument contains it
    /// (configurations built in different directories compare equal), joined by
    /// spaces. Only a rewritten argument is copied. It depends on the directory and
    /// the argument list alone, so commands sharing both share it.
    pub fn canonical_arguments(&self) -> String {
        let directory = self.directory;
        let mut args: Vec<Cow<'_, str>> = self
            .arguments
            .iter()
            .filter(|a| !a.trim().is_empty())
            .map(|a| {
                if a.contains(directory) {
                    Cow::Owned(a.replace(directory, "<build-dir>"))
                } else {
                    Cow::Borrowed(a.as_ref())
                }
            })
            .collect();
        args.sort_unstable();
        args.join(" ")
    }

    /// The canonical identity of this command for exact comparison:
    /// `{file}|{canonical_arguments}`.
    pub fn canonical_key(&self) -> String {
        format!("{}|{}", self.file(), self.canonical_arguments())
    }
}

/// A database of compile commands produced by configuring one build configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileDatabase<'p> {
    /// Label of the configuration that produced this database.
    pub configuration: String,
    /// The commands.
    pub commands: Vec<CompileCommand<'p>>,
}

impl<'p> CompileDatabase<'p> {
    /// Number of translation units (one command each).
    pub fn translation_units(&self) -> usize {
        self.commands.len()
    }

    /// Classify each distinct argument list of the database once: `classify` is
    /// called with the first command of each list, in command order, and each
    /// command's list comes back as its position among those calls. Commands share
    /// a list when their arguments are equal; [`configure`](crate::configure())
    /// builds each such list once, so most compare by address.
    pub fn classify_lists(&self, mut classify: impl FnMut(&CompileCommand<'p>)) -> Vec<usize> {
        let mut firsts: Vec<&CompileCommand<'p>> = Vec::new();
        (self.commands.iter())
            .map(|command| {
                let shared = (firsts.iter()).position(|first| first.arguments == command.arguments);
                shared.unwrap_or_else(|| {
                    classify(command);
                    firsts.push(command);
                    firsts.len() - 1
                })
            })
            .collect()
    }

    /// All distinct target names.
    pub fn targets(&self) -> Vec<String> {
        let set: BTreeSet<&str> = self.commands.iter().map(|c| c.target).collect();
        set.into_iter().map(str::to_owned).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command<'p>(dir: &'p str, source: &'p SourceSpec, args: &[&'p str]) -> CompileCommand<'p> {
        CompileCommand {
            directory: dir,
            target: "app",
            source,
            output: format!("{}.o", source.path),
            arguments: args.iter().map(|&s| Cow::Borrowed(s)).collect(),
        }
    }

    #[test]
    fn canonical_key_sorts_flags_and_strips_build_dir() {
        let a_ck = SourceSpec::new("a.ck", "");
        let a = command(
            "/build/cfg1",
            &a_ck,
            &["-O3", "-DGMX_MPI", "-I/build/cfg1/include"],
        );
        let b = command(
            "/build/cfg2",
            &a_ck,
            &["-DGMX_MPI", "-O3", "-I/build/cfg2/include"],
        );
        assert_ne!(a.arguments, b.arguments);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(
            a.canonical_arguments(),
            "-DGMX_MPI -I<build-dir>/include -O3"
        );
        assert_eq!(
            a.canonical_key(),
            "a.ck|-DGMX_MPI -I<build-dir>/include -O3"
        );
        // Blank arguments drop out; ISA flags and definitions stay in the identity.
        let blank = command("/b", &a_ck, &["-O3", "  ", "-mavx512f"]);
        assert_eq!(blank.canonical_key(), "a.ck|-O3 -mavx512f");
        let sse = command("/b", &a_ck, &["-O3", "-msse4.1"]);
        assert_ne!(blank.canonical_key(), sse.canonical_key());
        assert_eq!(command("/b", &a_ck, &[]).canonical_key(), "a.ck|");
    }

    #[test]
    fn database_queries() {
        let (a_ck, b_ck) = (SourceSpec::new("a.ck", ""), SourceSpec::new("b.ck", ""));
        let mut db = CompileDatabase {
            configuration: "default".into(),
            commands: vec![],
        };
        db.commands.push(command("/b", &a_ck, &["-O3"]));
        let mut second = command("/b", &b_ck, &["-O3"]);
        second.target = "lib";
        db.commands.push(second);
        assert_eq!(db.translation_units(), 2);
        assert_eq!(db.targets(), vec!["app".to_string(), "lib".to_string()]);
        assert_eq!(db.commands[1].file(), "b.ck");
    }
}
