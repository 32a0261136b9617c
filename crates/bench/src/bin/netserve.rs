//! Serve-layer load bench: wire QPS and p50/p99/p999 request latency of
//! the multi-tenant filter server vs concurrent connection count.
//!
//! Prints the table and writes a machine-readable summary (default
//! `BENCH_serve.json`; `--out PATH` overrides) that CI uploads as the
//! serve-trajectory artifact, stamped with the commit, `nproc` and
//! rustc that produced it.
//!
//! Flags: `--out PATH`, `--keys N`, `--batch N`, `--requests N`,
//! `--depth N`, `--conns A,B,C`, `--seed N`.

fn main() {
    let mut out = "BENCH_serve.json".to_string();
    let mut keys = 500_000usize;
    let mut batch = 512usize;
    let mut requests = 200usize;
    let mut depth = 4usize;
    let mut conns = vec![1usize, 2, 4, 8];
    let mut seed = 0xBEEFu64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => out = value("--out"),
            "--keys" => keys = value("--keys").parse().expect("--keys: integer"),
            "--batch" => batch = value("--batch").parse().expect("--batch: integer"),
            "--requests" => requests = value("--requests").parse().expect("--requests: integer"),
            "--depth" => depth = value("--depth").parse().expect("--depth: integer"),
            "--conns" => {
                conns = value("--conns")
                    .split(',')
                    .map(|c| c.trim().parse().expect("--conns: integers"))
                    .collect();
            }
            "--seed" => seed = value("--seed").parse().expect("--seed: integer"),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --out PATH | --keys N | --batch N | --requests N | --depth N | \
                     --conns A,B,C | --seed N"
                );
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    assert!(!conns.is_empty(), "--conns needs at least one count");

    let r = habf_bench::netserve::run_netserve(keys, batch, requests, depth, &conns, seed);
    r.table().print();
    println!(
        "\n{} keys served, {}-key frames pipelined {} deep: best {:.0} QPS across {} connection counts",
        r.keys,
        r.batch,
        r.depth,
        r.best_qps(),
        conns.len(),
    );
    std::fs::write(&out, r.to_json()).expect("write summary");
    println!("wrote {out}");
}
