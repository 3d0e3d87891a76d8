//! Goldens for the paper bins and the query generators.
//!
//! `fig15`, `fig17` and `fig10` train nothing, so every non-timing column
//! they print is a pure function of the code: the term counts of the
//! decomposed region queries, the index entries and bytes per scale, and
//! the per-scale ACF. The query generators behind Fig. 15 and the
//! benchmark's mask pools run on `Mask` set operations. `table3 --quick`
//! trains a model, so its RMSEs carry a stated tolerance. A change that
//! moves any of these moves an answer, and fails here instead of drifting
//! unnoticed into the committed `results_*.txt`.

use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_tensor::SeededRng;
use std::process::Command;

fn run_quick(bin: &str) -> String {
    let out = Command::new(bin)
        .arg("--quick")
        .output()
        .expect("bin starts");
    assert!(out.status.success(), "{bin} --quick failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The whitespace-separated fields of every line whose first field is a
/// scale label (`S1`, `S2`, ...).
fn scale_rows(stdout: &str) -> Vec<Vec<String>> {
    stdout
        .lines()
        .map(|l| l.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
        .filter(|f| {
            f.first().is_some_and(|s| {
                s.len() > 1 && s.starts_with('S') && s[1..].bytes().all(|b| b.is_ascii_digit())
            })
        })
        .collect()
}

fn assert_rows(bin: &str, got: Vec<Vec<String>>, want: &[&str]) {
    let got: Vec<String> = got.iter().map(|r| r.join(" ")).collect();
    assert_eq!(got, want, "{bin}: rows moved");
}

#[test]
fn fig15_term_counts() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_fig15"));
    // `#query`, `avg terms` and the integer term total of each task; the
    // two timing columns in between differ run to run.
    let rows: Vec<Vec<String>> = stdout
        .lines()
        .filter(|l| l.contains(" Task ") && !l.starts_with("Dataset"))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let n = f.len();
            vec![
                f[..n - 5].join(" "),
                f[n - 5].to_owned(),
                f[n - 2].to_owned(),
                f[n - 1].to_owned(),
            ]
        })
        .collect();
    assert_rows(
        "fig15",
        rows,
        &[
            "Taxi NYC (synthetic) Task 1 77 11.5 889",
            "Taxi NYC (synthetic) Task 2 40 17.2 689",
            "Taxi NYC (synthetic) Task 3 18 38.6 695",
            "Taxi NYC (synthetic) Task 4 6 88.8 533",
            "Freight Transport (synthetic) Task 1 90 7.5 676",
            "Freight Transport (synthetic) Task 2 39 17.7 690",
            "Freight Transport (synthetic) Task 3 19 28.2 536",
            "Freight Transport (synthetic) Task 4 4 45.8 183",
        ],
    );
}

#[test]
fn fig17_index_entries_and_bytes() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_fig17"));
    assert_rows(
        "fig17",
        scale_rows(&stdout),
        &[
            // Taxi NYC: scale, #entries, bytes
            "S1 3072 78108",
            "S2 768 29646",
            "S4 192 13824",
            "S8 48 7752",
            "S16 12 8496",
            "S32 1 931",
            // Freight
            "S1 3072 73080",
            "S2 768 19824",
            "S4 192 6894",
            "S8 48 4254",
            "S16 12 3516",
            "S32 1 373",
        ],
    );
    let totals: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("total serialized index"))
        .collect();
    assert_eq!(
        totals,
        [
            "total serialized index: 0.14 MB (4093 entries)",
            "total serialized index: 0.11 MB (4093 entries)",
        ],
        "fig17: totals moved"
    );
}

#[test]
fn fig10_acf_per_scale() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_fig10"));
    assert_rows(
        "fig10",
        scale_rows(&stdout),
        &[
            // Taxi NYC: scale, mean ACF, std
            "S1 0.154 0.220",
            "S2 0.283 0.304",
            "S4 0.464 0.306",
            "S8 0.675 0.296",
            "S16 0.831 0.000",
            // Freight
            "S1 0.044 0.114",
            "S2 0.107 0.202",
            "S4 0.213 0.283",
            "S8 0.447 0.314",
            "S16 0.602 0.000",
        ],
    );
}

/// `table3 --quick` trains One4All-ST (16x16, 20 epochs) and compares
/// the three search strategies. Its search report and the Prop.% columns
/// (the share of queries whose combination differs from Direct's) are
/// compared exactly. The Direct, Union and U&S RMSEs are compared within
/// a relative 0.5%: the seeded flow and weight init pass through libm's
/// `ln`, `cos` and `exp`, and the network's sigmoid through `exp`, whose
/// last-place rounding may differ on another host's libm, and training
/// amplifies such differences. On one host every column is bit-identical
/// across thread counts and ISA tiers. 0.5% is a third of the smallest
/// gap between two strategies' RMSEs in the table (Task 4, Direct vs
/// Union, 1.5%), so swapping or misevaluating a strategy still fails.
#[test]
fn table3_search_counts_and_rmses() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_table3"));
    // per task: (label and the two Prop.% columns, [Direct, Union, U&S])
    let want: [(&str, [f64; 3]); 4] = [
        ("Task 1 26.3% 47.4%", [10.090, 11.373, 10.439]),
        ("Task 2 75.0% 75.0%", [16.721, 17.012, 17.012]),
        ("Task 3 100.0% 100.0%", [26.912, 24.534, 24.534]),
        ("Task 4 100.0% 100.0%", [27.629, 27.201, 27.201]),
    ];
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with("Task ") && !l.contains("Direct"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), want.len(), "table3: task rows moved");
    for (f, (label, rmses)) in rows.iter().zip(want) {
        // Task N | Direct | Prop.% Imprv.% Union | Prop.% Imprv.% U&S
        assert_eq!(
            [f[0], f[1], f[4], f[8]].join(" "),
            label,
            "table3: Prop.% moved"
        );
        for (got, want) in [f[2], f[6], f[10]].iter().zip(rmses) {
            let got: f64 = got.parse().expect("an RMSE");
            assert!(
                (got - want).abs() <= 5e-3 * want,
                "table3 {label}: RMSE {got} vs golden {want}"
            );
        }
    }
    let report: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("search report"))
        .collect();
    assert_eq!(
        report,
        [
            "search report (U&S): 60 direct / 25 composed single grids, \
          73/680 multi-grids use subtraction"
        ],
        "table3: search counts moved"
    );
}

/// FNV-1a over the dimensions and `iter_set` coordinates of every mask
/// of one round of the four standard tasks, in generation order.
fn task_digest(side: usize, seed: u64, hex_task1: bool) -> (usize, u64) {
    let mut rng = SeededRng::new(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: usize| {
        for b in (v as u32).to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut count = 0;
    for spec in TaskSpec::standard_tasks(150.0) {
        for m in task_queries(side, side, spec, hex_task1, &mut rng) {
            feed(m.h());
            feed(m.w());
            for (r, c) in m.iter_set() {
                feed(r);
                feed(c);
            }
            feed(usize::MAX);
            count += 1;
        }
    }
    (count, hash)
}

#[test]
fn task_queries_32x32() {
    assert_eq!(task_digest(32, 7, false), (141, 15744312311247009753));
}

#[test]
fn task_queries_128x128() {
    assert_eq!(task_digest(128, 7, false), (2214, 8074910560419635949));
    // Fig. 15's freight stream: seed 11 with hexagonal Task 1
    assert_eq!(task_digest(128, 11, true), (2265, 7529990754062620313));
}
