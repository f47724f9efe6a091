//! The DUEL REPL binary.
//!
//! ```sh
//! duel                 # explore a built-in scenario
//! duel program.c       # debug a mini-C program
//! duel --max-steps 100000 --timeout-ms 2000 program.c
//! ```

use std::io::{BufRead, Write};

use duel_cli::{parse_args, Repl, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut repl = Repl::with_config(parsed.options, parsed.cache);
    if parsed.trace_json.is_some() || parsed.trace_perfetto.is_some() {
        repl.set_tracing(true);
    }
    if let Some(n) = parsed.trace_buf {
        repl.set_trace_buf(n);
    }
    let mut out = String::new();
    if let Some(path) = &parsed.replay {
        repl.handle(&format!(".replay {path}"), &mut out);
        print!("{out}");
        out.clear();
    }
    if let Some(path) = parsed.path {
        repl.handle(&format!(".load {path}"), &mut out);
        print!("{out}");
        out.clear();
    } else if parsed.replay.is_none() {
        println!("DUEL — a very high-level debugging language (USENIX '93).");
        println!("Built-in scenario loaded: x, hash, L, head, root, argv, s.");
        println!("Try: x[1..4,8,12..50] >? 5 <? 10   (or .help)\n");
    }
    if let Some(path) = &parsed.record {
        repl.handle(&format!(".record {path}"), &mut out);
        print!("{out}");
        out.clear();
    }
    let stdin = std::io::stdin();
    loop {
        print!("duel> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let more = repl.handle(&line, &mut out);
        print!("{out}");
        out.clear();
        if !more {
            break;
        }
    }
    if parsed.record.is_some() {
        // Finalize explicitly so the footer lands before we report;
        // dropping the Repl would also finalize, but silently.
        repl.handle(".record stop", &mut out);
        print!("{out}");
        out.clear();
    }
    if let Some(path) = parsed.trace_json {
        if let Err(e) = std::fs::write(&path, repl.trace_json()) {
            eprintln!("cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path}");
    }
    if let Some(path) = parsed.trace_perfetto {
        if let Err(e) = std::fs::write(&path, repl.perfetto_json()) {
            eprintln!("cannot write perfetto trace to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("perfetto trace written to {path} (load in ui.perfetto.dev)");
    }
}
