//! A pinned in-batch eviction trace. Under a three-series budget, a spawn
//! inside a batch evicts a series that appears again later in the same
//! batch, so the freed slab slot is reused before that series comes back;
//! a never-seen series also repeats within one batch, once behind a
//! quarantined point. Scores, eviction order and the checkpoint bytes are
//! pinned at 1/4/16 shards × 1/2/8 threads: every series routes to shard
//! 0 at each shard count, so the trace is the same at all of them and
//! only the checkpoint's segmentation differs.

use tsad_core::ckpt::digest64;
use tsad_fleet::{entry_bytes, BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, StreamingGlobalZScore};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Digest of every emitted `(batch, batch_index, id, score bits)`.
const SCORES_DIGEST: u64 = 0x135e_cd67_868e_0868;
/// `digest64` of the final checkpoint bytes, per entry of `SHARD_COUNTS`.
const CHECKPOINT_DIGESTS: [u64; 3] = [
    0x85c9_125b_59a3_a5d2,
    0xc593_d9a3_7783_2211,
    0xd6db_2fe8_cbce_8ffa,
];

fn factory() -> FnFactory<impl Fn(u64) -> StreamingGlobalZScore + Sync> {
    FnFactory(|_id| StreamingGlobalZScore::new(2).unwrap())
}

/// The first eight ids that route to shard 0 of 16 (hence of 4 and 1).
fn ids() -> Vec<u64> {
    let probe = Fleet::new(
        factory(),
        FleetConfig {
            shards: 16,
            ..FleetConfig::default()
        },
    );
    (0u64..)
        .filter(|&id| probe.shard_of(SeriesId(id)) == 0)
        .take(8)
        .collect()
}

/// The batch script over series `a..h`; comments list the LRU order
/// oldest first.
fn script() -> Vec<Vec<(SeriesId, f64)>> {
    let ids = ids();
    let [a, b, c, d, e, f, g, h] = ids[..] else {
        unreachable!("eight ids")
    };
    let plan: Vec<Vec<(u64, f64)>> = vec![
        // fill the budget: LRU a, b, c
        vec![(a, 1.0), (b, 2.0), (c, 3.0)],
        // touch a, b (LRU c, a, b); d evicts c into c's freed slot; c
        // comes back later in the batch, evicting a; never-seen e
        // repeats, evicting b on its first point only
        vec![(a, 1.5), (b, 2.5), (d, 4.0), (c, 3.5), (e, 5.0), (e, 5.5)],
        // LRU d, c, e. never-seen f behind a quarantined point evicts d;
        // a (evicted last batch) respawns between f's repeats
        vec![(f, f64::NAN), (f, 6.0), (a, 1.25), (f, 6.5), (c, 3.25)],
        // LRU a, f, c. never-seen g repeats around d's respawn; h and a
        // evict the rest
        vec![(g, 7.0), (d, 4.5), (g, 7.5), (h, 8.0), (g, 7.25), (a, 1.75)],
        // steady state on the survivors
        vec![(h, 8.5), (g, 7.75), (a, 1.5), (h, 8.25)],
    ];
    plan.into_iter()
        .map(|b| b.into_iter().map(|(id, v)| (SeriesId(id), v)).collect())
        .collect()
}

struct Trace {
    scores: Vec<(usize, usize, u64, u64)>,
    evicted: Vec<Vec<u64>>,
    checkpoint: u64,
}

fn run(shards: usize, threads: usize) -> Trace {
    let det = StreamingGlobalZScore::new(2).unwrap();
    with_threads(threads, || {
        let mut fleet = Fleet::new(
            factory(),
            FleetConfig {
                shards,
                shard_budget_bytes: entry_bytes(&det) * 3,
                ..FleetConfig::default()
            },
        );
        let mut out = BatchOutput::new();
        let mut trace = Trace {
            scores: Vec::new(),
            evicted: Vec::new(),
            checkpoint: 0,
        };
        for (t, batch) in script().iter().enumerate() {
            fleet.push_batch(batch, &mut out);
            for s in &out.scores {
                trace
                    .scores
                    .push((t, s.batch_index, s.id.0, s.score.to_bits()));
            }
            trace
                .evicted
                .push(out.evicted.iter().map(|id| id.0).collect());
        }
        trace.checkpoint = digest64(&fleet.checkpoint().to_bytes());
        trace
    })
}

fn scores_digest(scores: &[(usize, usize, u64, u64)]) -> u64 {
    let mut bytes = Vec::new();
    for &(t, i, id, bits) in scores {
        for word in [t as u64, i as u64, id, bits] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    digest64(&bytes)
}

#[test]
fn in_batch_eviction_trace_is_pinned_at_every_shard_and_thread_count() {
    let ids = ids();
    let [a, b, c, d, e, f, _, _] = ids[..] else {
        unreachable!("eight ids")
    };
    let want_evicted = vec![
        vec![],
        vec![c, a, b],
        vec![d, c, e],
        vec![a, f, c, d],
        vec![],
    ];
    for (k, &shards) in SHARD_COUNTS.iter().enumerate() {
        for &threads in &THREAD_COUNTS {
            let got = run(shards, threads);
            let at = format!("shards={shards} threads={threads}");
            assert_eq!(got.evicted, want_evicted, "{at}: eviction order");
            assert_eq!(got.scores.len(), 10, "{at}: score count");
            assert_eq!(scores_digest(&got.scores), SCORES_DIGEST, "{at}: scores");
            assert_eq!(got.checkpoint, CHECKPOINT_DIGESTS[k], "{at}: checkpoint");
        }
    }
}
