//! Every paper artifact, rendered in-process.
//!
//! The 13 deterministic artifacts must equal `crates/bench/golden/<name>.txt`
//! byte for byte, and every "vs paper" verdict they print is asserted on
//! its own, so regenerating a golden cannot hide a departure from the
//! paper. The three measured artifacts run once at a 25 ms budget.

use heax_bench::ablations::PAPER_DSP_REDUCTION;
use heax_bench::tables::{TABLE1_PAPER, TABLE6_PAPER};
use heax_bench::{Artifact, ARTIFACTS};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

fn render(name: &str) -> String {
    let (_, artifact) = ARTIFACTS.iter().find(|(n, _)| *n == name).unwrap();
    let mut out = Vec::new();
    artifact.render(&mut out, 25).expect("render");
    String::from_utf8(out).expect("utf-8")
}

/// Renders `name`, checks it against its golden and returns the text.
fn golden(name: &str) -> String {
    let got = render(name);
    let want = std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}.txt")).expect("golden");
    if got != want {
        let (w, g) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
        let lines = w.clone().count().max(g.clone().count());
        let end = std::iter::repeat("<end>");
        let mut pairs = w
            .chain(end.clone())
            .zip(g.chain(end))
            .take(lines)
            .enumerate();
        let (line, (w, g)) = pairs.find(|(_, (w, g))| w != g).expect("a line differs");
        panic!(
            "{name} differs from golden/{name}.txt at line {}:\n  golden:   {w:?}\n  rendered: {g:?}\n\
             If the change is intended, regenerate it with\n  \
             cargo run -p heax-bench --release --bin repro -- {name} > crates/bench/golden/{name}.txt",
            line + 1
        );
    }
    got
}

/// The trimmed cells of the data rows of the table titled `title…`.
fn table<'a>(text: &'a str, title: &str) -> Vec<Vec<&'a str>> {
    let mut lines = text.lines();
    lines
        .find(|l| l.starts_with(&format!("== {title}")))
        .unwrap();
    let data = lines.skip(2).take_while(|l| !l.is_empty()); // headers, separator
    data.map(|l| l.split('|').map(str::trim).collect())
        .collect()
}

macro_rules! golden_only {
    ($($name:ident),+) => {$(
        #[test]
        fn $name() {
            golden(stringify!($name));
        }
    )+};
}

golden_only!(
    table2,
    table3,
    figure4,
    figure6,
    ablation_modules,
    extension_scaling,
    noise_growth
);

#[test]
fn table1() {
    let text = golden("table1");
    let rows = table(&text, "Table 1");
    assert_eq!(rows.len(), TABLE1_PAPER.len());
    for (row, (chip, paper)) in rows.iter().zip(TABLE1_PAPER) {
        assert!(row[1].starts_with(chip), "{row:?}");
        assert_eq!(row[2..], paper, "{chip}: model vs paper");
    }
}

#[test]
fn table4() {
    let text = golden("table4");
    for module in ["MULT", "NTT", "INTT"] {
        for row in table(&text, &format!("Table 4: {module} module")) {
            let cell = |i: usize| row[i].parse::<u64>().unwrap();
            // The paper's 16/32-core MULT entries are 2x below the formula.
            let factor = 1 + u64::from(module == "MULT" && cell(0) >= 16);
            assert_eq!(cell(6), factor * cell(7), "{module} with {} cores", row[0]);
        }
    }
}

#[test]
fn table5() {
    let text = golden("table5");
    let verdicts: Vec<&str> = table(&text, "Table 5").iter().map(|r| r[3]).collect();
    assert_eq!(verdicts, ["exact"; 4]);
}

#[test]
fn table6() {
    let text = golden("table6");
    let rows = table(&text, "Table 6");
    assert_eq!(rows.len(), TABLE6_PAPER.len());
    for (row, paper) in rows.iter().zip(TABLE6_PAPER) {
        let dsp: i64 = row[1].split(' ').next().unwrap().parse().unwrap();
        // Set-C is six 10-DSP cores short: the paper's Tables 5 and 6
        // disagree with each other there.
        let want = if row[0].ends_with("Set-C") { -60 } else { 0 };
        assert_eq!(dsp - paper[0] as i64, want, "{}: DSP vs paper", row[0]);
    }
}

#[test]
fn figure2() {
    let text = golden("figure2");
    assert!(text.contains("generated addresses, all match the ground-truth pairing."));
}

#[test]
fn ablation_wordsize() {
    let (lo, hi) = PAPER_DSP_REDUCTION;
    let text = golden("ablation_wordsize");
    for row in table(&text, "Ablation: word size") {
        let naive: f64 = row[7].trim_end_matches('x').parse().unwrap();
        assert!((lo..=hi).contains(&naive), "{}: {naive}x", row[0]);
    }
}

#[test]
fn table7() {
    assert!(render("table7").contains("Table 7"));
}

#[test]
fn table8() {
    assert!(render("table8").contains("channels -> SUSTAINED"));
}

#[test]
fn ablation_ntt() {
    assert!(render("ablation_ntt").contains("`*_auto` dispatches to"));
}

/// `repro` with no names prints every artifact, and the golden directory
/// holds exactly the deterministic ones.
#[test]
fn repro_runs_all_tables_and_figures() {
    let (all, _) = heax_bench::parse_args(&[]).expect("no arguments");
    assert_eq!(all.len(), ARTIFACTS.len());
    let fixed = ARTIFACTS
        .iter()
        .filter(|(_, a)| matches!(a, Artifact::Fixed(_)));
    let mut want: Vec<String> = fixed.map(|(name, _)| format!("{name}.txt")).collect();
    let dir = std::fs::read_dir(GOLDEN_DIR).expect("golden dir");
    let mut have: Vec<String> = dir
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    want.sort();
    have.sort();
    assert_eq!(want.len(), 13);
    assert_eq!(have, want);
}
