//! CLI for `heax-lint`.
//!
//! ```text
//! heax-lint --workspace        # lint the enclosing cargo workspace
//! heax-lint PATH [PATH ...]    # lint one or more trees
//! ```
//!
//! Exits 0 when clean, 1 on any diagnostic, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: heax-lint --workspace | PATH [PATH ...]");
    ExitCode::from(2)
}

/// Ascends from the current directory to the nearest `Cargo.toml`
/// declaring `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        return usage();
    }
    let mut roots: Vec<PathBuf> = Vec::new();
    for a in &args {
        if a == "--workspace" {
            match workspace_root() {
                Some(root) => roots.push(root),
                None => {
                    eprintln!("heax-lint: no enclosing cargo workspace found");
                    return ExitCode::from(2);
                }
            }
        } else if a.starts_with('-') {
            return usage();
        } else {
            roots.push(PathBuf::from(a));
        }
    }
    let mut total = 0usize;
    let mut files = 0usize;
    for root in &roots {
        match heax_lint::load_tree(root) {
            Ok(ws) => {
                let diags = heax_lint::lint(&ws);
                for d in &diags {
                    println!("{}", d.render());
                }
                total += diags.len();
                files += ws.files.len();
            }
            Err(e) => {
                eprintln!("heax-lint: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    if total == 0 {
        println!("heax-lint: OK ({files} files, rules L1–L6 clean)");
        ExitCode::SUCCESS
    } else {
        println!("heax-lint: {total} diagnostic(s)");
        ExitCode::FAILURE
    }
}
