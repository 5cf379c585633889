//! Byte-level fuzzing of the parsers that read untrusted bytes: cached
//! entries on disk and `gsd` request bodies.
//!
//! Seeds are real documents: a cached transform entry written by the
//! runner and a `/run` body naming builtin, textual and binary workloads.
//! Seeded SplitMix64 mutations (truncate, byte flip, splice, repeat, deep
//! nest) of those seeds go through every decoder a warm hit or a request
//! would reach: `http::try_parse` on the framed request, `json::parse`,
//! `protocol::request_from_json`, the `codec::*_from_json` decoders on
//! every object, `ir::parse` on every `program` string and
//! `codec::words_from_hex` + `ir::encode::decode_program` on every `bin`
//! string.  Each input must come back `Ok` or `Err` — a panic fails the
//! test — within a per-input wall budget, so a decoder that goes
//! quadratic or recurses without bound shows up here, not as a hung run.

use guardspec_harness::{codec, json, run_experiment, ExperimentSpec, Json, RunOptions};
use guardspec_server::http;
use guardspec_server::protocol::{
    request_from_json, request_to_json, three_schemes_request, WorkloadReq,
};
use guardspec_workloads::{extended_workloads, Scale};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

const CASES: u64 = 3000;
const BASE_SEED: u64 = 0xb17e_5eed;
/// Wall budget per input, for all its decoders together.  Linear decoders
/// take milliseconds on the largest input; a quadratic one takes seconds.
const BUDGET: Duration = Duration::from_secs(1);
/// Inputs are cut to this size, so the budget measures growth, not size.
const MAX_INPUT: usize = 256 * 1024;

/// SplitMix64: tiny, seedable, and good enough to pick mutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A real transform entry: the largest one a test-scale Table-3 run caches.
fn transform_entry_seed() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("guardspec-fuzz-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    run_experiment(
        &ExperimentSpec::three_schemes("fuzz-seed", Scale::Test),
        &opts,
    );
    let mut best = Vec::new();
    for shard in std::fs::read_dir(&dir).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            let is_transform = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("transform-"));
            if is_transform {
                let bytes = std::fs::read(&path).unwrap();
                if bytes.len() > best.len() {
                    best = bytes;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!best.is_empty(), "the seed run cached no transform entry");
    best
}

/// A real `/run` body with one workload of each kind.
fn run_body_seed() -> Vec<u8> {
    let mut req = three_schemes_request("table3", Scale::Test);
    let w = &extended_workloads(Scale::Test)[0];
    req.workloads.push(WorkloadReq::Text {
        name: "text".to_string(),
        program: w.program.to_string(),
    });
    req.workloads.push(WorkloadReq::Bin {
        name: "bin".to_string(),
        hex: codec::words_to_hex(&guardspec_ir::encode::encode_program(&w.program)),
    });
    request_to_json(&req).to_compact().into_bytes()
}

fn mutate(rng: &mut SplitMix, seeds: &[Vec<u8>], input: &mut Vec<u8>) {
    match rng.below(5) {
        // Truncate.
        0 => input.truncate(rng.below(input.len() + 1)),
        // Flip a few bytes.
        1 => {
            for _ in 0..1 + rng.below(4) {
                if !input.is_empty() {
                    let at = rng.below(input.len());
                    input[at] ^= 1 + rng.below(255) as u8;
                }
            }
        }
        // Splice in a slice of some seed.
        2 => {
            let donor = &seeds[rng.below(seeds.len())];
            let a = rng.below(donor.len());
            let b = a + rng.below(donor.len() - a + 1);
            let at = rng.below(input.len() + 1);
            let cut = at + rng.below(input.len() - at + 1);
            input.splice(at..cut, donor[a..b].iter().copied());
        }
        // Repeat a range in place.
        3 => {
            if !input.is_empty() {
                let a = rng.below(input.len());
                let b = a + 1 + rng.below((input.len() - a).min(4096));
                let times = 1 + rng.below(64);
                let piece = input[a..b].to_vec();
                let tail = input.split_off(b);
                for _ in 0..times {
                    input.extend_from_slice(&piece);
                }
                input.extend_from_slice(&tail);
            }
        }
        // Deep nesting, around the parser's cap and far past it.
        _ => {
            let depth = match rng.below(3) {
                0 => json::MAX_DEPTH - 2 + rng.below(5),
                1 => rng.below(4096),
                _ => rng.below(200_000),
            };
            let opener: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"k\":" };
            let at = rng.below(input.len() + 1);
            let nest: Vec<u8> = opener
                .iter()
                .copied()
                .cycle()
                .take(opener.len() * depth)
                .collect();
            input.splice(at..at, nest);
        }
    }
    input.truncate(MAX_INPUT);
}

/// What one input reached, for the coverage check at the end.
#[derive(Default)]
struct Reached {
    json_ok: u64,
    json_err: u64,
    request_ok: u64,
    report_ok: u64,
    program_ok: u64,
}

/// Run every decoder over the objects and strings of a parsed document.
fn decode_all(j: &Json, reached: &mut Reached, depth: usize) {
    assert!(
        depth <= json::MAX_DEPTH + 1,
        "parser returned a too-deep value"
    );
    match j {
        Json::Obj(pairs) => {
            let _ = codec::profile_from_json(j);
            let _ = codec::stats_from_json(j);
            let _ = codec::accounting_from_json(j);
            let _ = codec::sample_from_json(j);
            if codec::report_from_json(j).is_ok() {
                reached.report_ok += 1;
            }
            for (k, v) in pairs {
                match (k.as_str(), v) {
                    ("program", Json::Str(src)) => {
                        if guardspec_ir::parse::parse_program(src, None).is_ok() {
                            reached.program_ok += 1;
                        }
                    }
                    ("bin", Json::Str(hex)) => {
                        if let Ok(words) = codec::words_from_hex(hex) {
                            let _ = guardspec_ir::encode::decode_program(&words);
                        }
                    }
                    _ => decode_all(v, reached, depth + 1),
                }
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| decode_all(v, reached, depth + 1)),
        _ => {}
    }
}

/// Feed one input through the HTTP framing and every decoder behind it.
fn feed(input: &[u8], reached: &mut Reached) {
    let mut framed = format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        input.len()
    )
    .into_bytes();
    framed.extend_from_slice(input);
    let _ = http::try_parse(&framed);
    let _ = http::try_parse(input);

    let Ok(text) = std::str::from_utf8(input) else {
        reached.json_err += 1;
        return;
    };
    match json::parse(text) {
        Ok(j) => {
            reached.json_ok += 1;
            if request_from_json(&j).is_ok() {
                reached.request_ok += 1;
            }
            decode_all(&j, reached, 0);
        }
        Err(_) => reached.json_err += 1,
    }
}

#[test]
fn mutated_entries_and_bodies_decode_or_fail_within_budget() {
    let seeds = vec![transform_entry_seed(), run_body_seed()];
    // The seeds themselves decode cleanly.
    let mut clean = Reached::default();
    for s in &seeds {
        feed(s, &mut clean);
    }
    assert_eq!(clean.json_ok, 2);
    assert_eq!(clean.request_ok, 1, "the /run seed is a valid request");
    assert!(clean.report_ok >= 1, "the transform seed's report decodes");
    assert!(clean.program_ok >= 2, "both seeds' program texts parse");

    // Inputs run on a worker thread with a test thread's 2 MiB stack; the
    // budget is a deadline on its answer, so an input that hangs fails the
    // test at once instead of stalling the suite.
    let (input_tx, input_rx) = mpsc::channel::<Vec<u8>>();
    let (done_tx, done_rx) = mpsc::channel::<Duration>();
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut reached = Reached::default();
            for input in input_rx {
                let t0 = Instant::now();
                feed(&input, &mut reached);
                let _ = done_tx.send(t0.elapsed());
            }
            reached
        })
        .unwrap();
    let mut slowest = (Duration::ZERO, 0);
    for case in 0..CASES {
        let mut rng = SplitMix(guardspec_fuzz::case_seed(BASE_SEED, case));
        let mut input = seeds[rng.below(seeds.len())].clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &seeds, &mut input);
        }
        let len = input.len();
        input_tx.send(input).unwrap();
        match done_rx.recv_timeout(BUDGET) {
            Ok(dt) => slowest = slowest.max((dt, case)),
            Err(RecvTimeoutError::Timeout) => {
                panic!("case {case} ({len} bytes) ran past the {BUDGET:?} budget")
            }
            // The worker panicked: surface its panic for this case.
            Err(RecvTimeoutError::Disconnected) => {
                eprintln!("case {case} ({len} bytes) panicked");
                std::panic::resume_unwind(worker.join().err().expect("the worker panicked"));
            }
        }
    }
    drop(input_tx);
    let reached = worker.join().unwrap();
    // The mutations reach both outcomes and the decoders past the parser.
    assert!(reached.json_ok > CASES / 20, "json ok {}", reached.json_ok);
    assert!(
        reached.json_err > CASES / 20,
        "json err {}",
        reached.json_err
    );
    assert!(
        reached.request_ok > 0,
        "no mutated body stayed a valid request"
    );
    assert!(reached.program_ok > 0, "no mutated program text parsed");
    eprintln!(
        "byte parsers: {CASES} cases, {} parsed, {} rejected, slowest case {} in {:?}",
        reached.json_ok, reached.json_err, slowest.1, slowest.0
    );
}
