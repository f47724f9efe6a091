//! E5 — the paper's implementation line counts, reproduced.
//!
//! The paper reports: `duel_eval` and associated functions ≈ 400 lines
//! of C; related functions (search stacks, aliases, …) ≈ 300; operator
//! application + `Value` manipulation ≈ 1200; and a 400-line gdb
//! interface module broken down 30/100/100/70/100. This binary counts
//! the corresponding Rust modules (code lines, excluding blanks,
//! comments, and the test modules) and prints the comparison table
//! recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p duel-bench --bin loc_report
//! ```

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Counts code lines: non-blank, non-`//` lines above the `#[cfg(test)]`
/// marker.
fn loc(path: &Path) -> usize {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let body = match src.find("#[cfg(test)]") {
        Some(i) => &src[..i],
        None => &src,
    };
    body.lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
        })
        .count()
}

fn sum(root: &Path, files: &[&str]) -> usize {
    files.iter().map(|f| loc(&root.join(f))).sum()
}

/// Code lines of every `.rs` file under `dir`, recursively.
fn tree(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    entries
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            if p.is_dir() {
                tree(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                loc(&p)
            } else {
                0
            }
        })
        .sum()
}

fn main() {
    let root = repo_root();
    let rows: Vec<(&str, usize, &str)> = vec![
        (
            "duel_eval (resumable generators)",
            sum(
                &root,
                &[
                    "crates/core/src/eval/mod.rs",
                    "crates/core/src/eval/basic.rs",
                    "crates/core/src/eval/control.rs",
                    "crates/core/src/eval/structure.rs",
                    "crates/core/src/eval/misc.rs",
                ],
            ),
            "~400 lines of C",
        ),
        (
            "related (scopes, aliases, symbolic)",
            sum(
                &root,
                &["crates/core/src/scope.rs", "crates/core/src/sym.rs"],
            ),
            "~300 lines of C",
        ),
        (
            "operator application + Value",
            sum(
                &root,
                &[
                    "crates/core/src/apply.rs",
                    "crates/core/src/value.rs",
                    "crates/core/src/printer.rs",
                ],
            ),
            "~1200 lines of C",
        ),
        (
            "parser + lexer (yacc + handwritten)",
            sum(
                &root,
                &[
                    "crates/core/src/parser.rs",
                    "crates/core/src/lexer.rs",
                    "crates/core/src/token.rs",
                    "crates/core/src/ast.rs",
                ],
            ),
            "(yacc grammar, size not stated)",
        ),
        (
            "debugger interface (narrow API + MI adapter)",
            sum(
                &root,
                &[
                    "crates/target/src/iface.rs",
                    "crates/target/src/value_io.rs",
                    "crates/gdbmi/src/target.rs",
                ],
            ),
            "~400 lines of C (30/100/100/70/100)",
        ),
    ];
    println!(
        "E5 — implementation size vs the paper (code lines, tests \
         excluded)\n"
    );
    println!("{:<46} {:>8}   paper (C)", "component", "rust");
    println!("{}", "-".repeat(96));
    let mut total = 0;
    for (name, n, paper) in &rows {
        println!("{name:<46} {n:>8}   {paper}");
        total += n;
    }
    println!("{}", "-".repeat(96));
    println!("{:<46} {total:>8}", "total (counted components)");
    // Whole-crate totals: the size of the decorated seam and the REPL
    // around it, which the paper's 400-line interface is measured
    // against.
    let target = tree(&root.join("crates/target/src"));
    let cli = tree(&root.join("crates/cli/src"));
    println!("{:<46} {target:>8}", "duel-target (whole crate)");
    println!("{:<46} {cli:>8}", "duel-cli (whole crate)");
    println!("{:<46} {:>8}", "duel-target + duel-cli", target + cli);
    // The paper's shape, checked against the rows above rather than
    // asserted: operator application outweighs `duel_eval` (1200 vs
    // 400 lines of C), and the interface is a small fraction of the
    // parts the paper sized (400 of 2300 lines, parser excluded).
    let (eval, apply, iface) = (rows[0].1, rows[2].1, rows[4].1);
    let sized = eval + rows[1].1 + apply + iface;
    println!(
        "\nShape check against the paper:\n  operator application vs duel_eval: \
         {apply} vs {eval} lines ({:.1}x; paper 1200 vs 400, 3.0x) — {}",
        apply as f64 / eval as f64,
        if apply > eval {
            "dominates, as in the paper"
        } else {
            "does NOT dominate, unlike the paper"
        }
    );
    println!(
        "  debugger interface: {iface} of {sized} lines of the paper-sized \
         components ({:.0}%; paper 400 of 2300, 17%)",
        100.0 * iface as f64 / sized as f64
    );
}
