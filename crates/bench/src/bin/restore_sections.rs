//! `restore_sections`: what each snapshot section buys at restore.
//!
//! ```text
//! cargo run --release -p jumpslice-bench --bin restore_sections
//! ```
//!
//! For a structured and an unstructured program at about 1k and 4.4k
//! statements, encodes the snapshot of a warmed analysis, then drops one
//! artifact section at a time and times decode alone and decode +
//! `Analysis::with_seed` + `warm`. Prints per section its encoded bytes,
//! the decode time dropping it saves, and the median change in restore +
//! warm (positive: the section pays for itself) with the standard
//! deviation of the runs. Rebuilding the artifact costs the change plus
//! the decode time saved.

use jumpslice_bench::{sized_structured, sized_unstructured};
use jumpslice_core::{decode_snapshot, encode_snapshot, Analysis, AnalysisSeed};
use jumpslice_lang::{parse, print_program};
use std::time::Instant;

const RUNS: usize = 41;

/// An artifact section, by name, and how to drop it from a seed.
type Section = (&'static str, fn(&mut AnalysisSeed));

/// Median and standard deviation.
fn median_sd(mut v: Vec<f64>) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    (v[v.len() / 2], var.sqrt())
}

/// Encoded bytes, and (median, sd) of decode and of restore + warm, in ms.
fn measure(src: &str, bytes: &[u8]) -> (usize, (f64, f64), (f64, f64)) {
    let (mut decode, mut total) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        let t = Instant::now();
        let snap = decode_snapshot(bytes).expect("own snapshot decodes");
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(snap.source, src);
        let a = Analysis::with_seed(&snap.prog, snap.seed);
        a.warm();
        total.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (bytes.len(), median_sd(decode), median_sd(total))
}

fn main() {
    for p in [
        sized_structured(1000),
        sized_unstructured(1000),
        sized_structured(4400),
        sized_unstructured(4400),
    ] {
        let src = print_program(&p);
        let p = parse(&src).expect("printed programs parse");
        let a = Analysis::new(&p);
        a.warm();
        let full = a.into_seed();
        let (bytes, (decode, _), (total, sd)) = measure(&src, &encode_snapshot(&src, &p, &full));
        println!(
            "{} stmts: {bytes} B, decode {decode:.3} ms, restore+warm {total:.3} ms (sd {sd:.3})",
            p.len()
        );
        let sections: [Section; 5] = [
            ("reaching", |s| s.reaching = None),
            ("pdg", |s| s.pdg = None),
            ("pdom", |s| s.pdom = None),
            ("lst", |s| s.lst = None),
            ("chain index", |s| s.chain_index = None),
        ];
        for (section, drop_section) in sections {
            let mut seed = full.clone();
            drop_section(&mut seed);
            let (b, (d, _), (t, sd)) = measure(&src, &encode_snapshot(&src, &p, &seed));
            println!(
                "  {section:<12} {:>9} B  decode saved {:>7.3} ms  restore+warm {:+.3} ms (sd {sd:.3})",
                bytes - b,
                decode - d,
                t - total,
            );
        }
    }
}
