//! Memory and boot time of finished sessions.
//!
//! ```text
//! cargo run --release -p histal-serve --example finished_sessions -- run DIR [N]
//! cargo run --release -p histal-serve --example finished_sessions -- boot DIR
//! ```
//!
//! `run` opens a store in the fresh directory `DIR` and runs `N`
//! (default 40) sessions of the `serve-annotate` benchmark config
//! (`mr` at scale 0.1, `WSHS(entropy)`, 20 rounds of 25) to completion
//! one after another, answered from their hidden gold labels. It prints
//! the peak resident set (`VmHWM`) after the first and after the last
//! session, and the growth per finished session between them.
//!
//! `boot` times `Store::open` over the journals in `DIR` and prints the
//! peak resident set after it. Linux only (it reads
//! `/proc/self/status`).

use std::time::Instant;

use histal_serve::{SessionConfig, Store};

/// Peak resident set of this process, in MiB.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(dir)) = (args.first(), args.get(1)) else {
        eprintln!("usage: finished_sessions run DIR [N] | boot DIR");
        std::process::exit(2);
    };
    match mode.as_str() {
        "run" => {
            let n: usize = args.get(2).map_or(40, |n| n.parse().expect("N is a count"));
            assert!(n >= 2, "N must be at least 2");
            let store = Store::open(dir).expect("open store");
            let config = SessionConfig {
                tenant: "mem".into(),
                dataset: "mr".into(),
                strategy: "WSHS(entropy)".into(),
                seed: 7,
                scale: 0.1,
                batch_size: 25,
                rounds: 20,
                init_labeled: 25,
                oracle: "simulated".into(),
            };
            let mut first = 0.0;
            for i in 0..n {
                let id = store.create_session(config.clone()).expect("create").id;
                store.run_to_completion(&id).expect("run");
                if i == 0 {
                    first = vm_hwm_mib();
                }
            }
            let last = vm_hwm_mib();
            println!(
                "VmHWM after 1 session {first:.1} MiB, after {n} {last:.1} MiB, \
                 {:.3} MiB per finished session",
                (last - first) / (n - 1) as f64
            );
        }
        "boot" => {
            let start = Instant::now();
            let store = Store::open(dir).expect("open store");
            let wall = start.elapsed().as_secs_f64();
            let journals = std::fs::read_dir(dir).expect("read DIR").count();
            println!(
                "Store::open over {journals} journals: {wall:.3} s, VmHWM {:.1} MiB",
                vm_hwm_mib()
            );
            drop(store);
        }
        _ => {
            eprintln!("usage: finished_sessions run DIR [N] | boot DIR");
            std::process::exit(2);
        }
    }
}
