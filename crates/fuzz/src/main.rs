//! `stitch-fuzz` — seeded fuzzing driver.
//!
//! ```text
//! stitch-fuzz [<target>|all] [--seeds N] [--base B] [--write-corpus]
//! ```
//!
//! Runs each requested target over seeds `B..B+N` (defaults honour the
//! `STITCH_FUZZ_SEED_BASE` / `STITCH_FUZZ_SEEDS` env knobs), printing
//! an outcome histogram and, for the coverage-fed differential target,
//! the translator entry-point coverage curve. With `--write-corpus` the
//! run also regenerates the harvested inputs of the checked-in
//! minimized corpus under `crates/fuzz/corpus/<target>/`.
//!
//! Exit code 0 means "no findings": every input either simulated under
//! its budget or came back as a typed error, and the differential
//! oracles held. Findings abort with a panic that names the seed.

use std::collections::BTreeMap;
use std::process::ExitCode;

use stitch_fuzz::{corpus, gen, seed_base, seed_count, targets, CoverageMap, Target, TARGETS};

struct Options {
    targets: Vec<Target>,
    seeds: u64,
    base: u64,
    write_corpus: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        targets: TARGETS.to_vec(),
        seeds: seed_count(),
        base: seed_base(),
        write_corpus: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "all" => opts.targets = TARGETS.to_vec(),
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad --seeds {v}"))?;
            }
            "--base" => {
                let v = args.next().ok_or("--base needs a value")?;
                opts.base = v.parse().map_err(|_| format!("bad --base {v}"))?;
            }
            "--write-corpus" => opts.write_corpus = true,
            name => match Target::from_name(name) {
                Some(t) => opts.targets = vec![t],
                None => return Err(format!("unknown target or flag '{name}'")),
            },
        }
    }
    Ok(opts)
}

/// Greedily shrinks a word image while `keeps` still accepts it.
fn minimize_words(words: Vec<u32>, keeps: impl Fn(&[u32]) -> bool) -> Vec<u32> {
    let mut best = words;
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < best.len() && best.len() > 1 {
            let mut trial = best.clone();
            let end = (i + chunk).min(trial.len());
            trial.drain(i..end);
            if !trial.is_empty() && keeps(&trial) {
                best = trial;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    best
}

fn histogram_line(hist: &BTreeMap<&'static str, u64>) -> String {
    hist.iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run_target(target: Target, opts: &Options) -> std::io::Result<()> {
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut harvest: Vec<(String, Vec<u8>)> = Vec::new();
    let mut seen_classes: BTreeMap<&'static str, Vec<u8>> = BTreeMap::new();
    let mut coverage = CoverageMap::new();

    for i in 0..opts.seeds {
        let seed = opts.base + i;
        match target {
            Target::Decode => {
                // Re-derive the input exactly as run_decode does so the
                // smallest representative of each class can be kept.
                let class = targets::run_decode(seed);
                *hist.entry(class).or_default() += 1;
                if opts.write_corpus {
                    corpus::keep_smallest(&mut seen_classes, class, decode_input(seed));
                }
            }
            Target::Differential => {
                let (class, fresh) = targets::run_differential(seed, &mut coverage);
                *hist.entry(class).or_default() += 1;
                if let Some(words) = fresh {
                    if opts.write_corpus {
                        let minimized = minimize_words(words, |w| {
                            let bytes = gen::words_to_bytes(w);
                            targets::replay_differential(&bytes) == class
                        });
                        harvest.push((format!("cov-{class}"), gen::words_to_bytes(&minimized)));
                    }
                }
            }
            Target::Faults => {
                let class = targets::run_faults(seed);
                *hist.entry(class).or_default() += 1;
                if opts.write_corpus && !seen_classes.contains_key(class) {
                    // Fault corpus entries are the seeds themselves:
                    // the plan and pipeline both re-derive from it.
                    seen_classes.insert(class, seed.to_le_bytes().to_vec());
                }
            }
            Target::Snapshot => {
                let class = corpus::harvest_snapshot(seed, &mut seen_classes);
                *hist.entry(class).or_default() += 1;
            }
            Target::Json => {
                let class = targets::run_json(seed);
                *hist.entry(class).or_default() += 1;
                if opts.write_corpus {
                    let mut rng = stitch_sim::SimRng::new(seed);
                    let doc = gen::random_json(&mut rng);
                    let mut bytes = doc.into_bytes();
                    for _ in 0..4 {
                        gen::mutate_bytes(&mut bytes, &mut rng);
                        let class = targets::replay_json(&bytes);
                        corpus::keep_smallest(&mut seen_classes, class, bytes.clone());
                    }
                }
            }
        }
    }

    let extra = match target {
        Target::Differential => format!(" coverage:{}", coverage.len()),
        _ => String::new(),
    };
    println!(
        "{:>12}: {} cases ok — {}{}",
        target.name(),
        opts.seeds,
        histogram_line(&hist),
        extra
    );

    if opts.write_corpus {
        for (class, bytes) in seen_classes {
            // Snapshot inputs are kept by their class on the sweep's
            // loaded twin, but the corpus replays them on a fresh chip,
            // which rejects workload core state: name each file by what
            // that replay reports.
            let class = match target {
                Target::Snapshot => targets::replay_snapshot(&bytes),
                _ => class,
            };
            harvest.push((class.to_owned(), bytes));
        }
        if target == Target::Snapshot {
            // A fresh-chip checkpoint is the one blob the bytes-only
            // replay can restore end-to-end; pin that path too.
            let blob = stitch_sim::Chip::new(stitch_sim::ChipConfig::stitch_16())
                .checkpoint()
                .encode();
            harvest.push((targets::replay_snapshot(&blob).to_owned(), blob));
        }
        harvest.sort();
        harvest.dedup();
        corpus::store(&corpus::corpus_dir(target), &harvest)?;
        println!(
            "{:>12}: wrote {} corpus inputs to {}",
            target.name(),
            harvest.len(),
            corpus::corpus_dir(target).display()
        );
    }
    Ok(())
}

/// Rebuilds the exact input `targets::run_decode` derives from `seed`.
fn decode_input(seed: u64) -> Vec<u8> {
    let mut rng = stitch_sim::SimRng::new(seed);
    let words = if rng.chance(1, 2) {
        let len = 1 + rng.index(64);
        rng.words(len)
    } else {
        let program = gen::random_program(&mut rng);
        let mut words = stitch_isa::encode_program(&program.instrs).expect("generator encodes");
        gen::mutate_words(&mut words, &mut rng);
        words
    };
    let bytes = gen::words_to_bytes(&words);
    let class = targets::replay_decode(&bytes);
    let minimized = minimize_words(gen::bytes_to_words(&bytes), |w| {
        targets::replay_decode(&gen::words_to_bytes(w)) == class
    });
    gen::words_to_bytes(&minimized)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stitch-fuzz: {e}");
            eprintln!("usage: stitch-fuzz [decode|differential|faults|snapshot|json|all] [--seeds N] [--base B] [--write-corpus]");
            return ExitCode::FAILURE;
        }
    };
    for target in &opts.targets {
        if let Err(e) = run_target(*target, &opts) {
            eprintln!("stitch-fuzz: {}: {e}", target.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
