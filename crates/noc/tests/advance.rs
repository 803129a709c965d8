//! Property tests for the mesh's fast-path entry points over random
//! traffic with random link faults:
//!
//! - [`Mesh::advance_to`]`(t)` leaves the same snapshot as `t − now`
//!   single ticks, busy or idle;
//! - [`Mesh::delivery_bound`] is never later than the cycle the message
//!   it bounds is actually delivered.
//!
//! Seeds are env-tunable like the fuzz sweeps:
//! `STITCH_FUZZ_SEED_BASE=<n> STITCH_FUZZ_SEEDS=<count> cargo test -p
//! stitch-noc --test advance`.

use stitch_noc::{Mesh, MeshConfig, MeshSnapshot, PortDir, TileId};

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The seeds a sweep runs: 256 from `0xAD00` unless overridden.
fn seeds() -> std::ops::Range<u64> {
    let base = env_or("STITCH_FUZZ_SEED_BASE", 0xAD00);
    base..base + env_or("STITCH_FUZZ_SEEDS", 256)
}

/// xorshift64*, seeded so that seed 0 still mixes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }

    fn tile(&mut self) -> TileId {
        TileId(self.below(16) as u8)
    }
}

fn mesh() -> Mesh {
    Mesh::new(MeshConfig::default())
}

fn replica(snap: &MeshSnapshot) -> Mesh {
    let mut m = mesh();
    m.restore(snap).expect("own snapshot restores");
    m
}

/// One step of random traffic: a few sends (empty to multi-packet),
/// and now and then a link fault, mostly transient.
fn perturb(m: &mut Mesh, rng: &mut Rng) {
    for _ in 0..rng.below(3) {
        let words: Vec<u32> = (0..rng.below(24)).map(|w| w as u32).collect();
        m.send(rng.tile(), rng.tile(), &words);
    }
    if rng.below(12) == 0 {
        let dir = [PortDir::North, PortDir::East, PortDir::South, PortDir::West];
        let until = if rng.below(8) == 0 {
            u64::MAX
        } else {
            m.cycle() + rng.below(200)
        };
        m.set_link_fault(rng.tile(), dir[rng.below(4) as usize], until);
    }
}

/// The `(dst, src)` pairs with a flit in flight.
fn pairs_in_flight(snap: &MeshSnapshot) -> Vec<(TileId, TileId)> {
    let mut pairs: Vec<(TileId, TileId)> = snap
        .inject
        .iter()
        .flatten()
        .flatten()
        .chain(snap.routers.iter().flat_map(|r| r.inputs.iter().flatten()))
        .map(|f| (f.dst, f.src))
        .collect();
    pairs.sort_by_key(|&(d, s)| (d.0, s.0));
    pairs.dedup();
    pairs
}

#[test]
fn advance_to_matches_single_ticks() {
    for seed in seeds() {
        let mut rng = Rng::new(seed);
        let mut m = mesh();
        for step in 0..40 {
            perturb(&mut m, &mut rng);
            let ticks = rng.below(48);
            let mut stepped = replica(&m.snapshot());
            for _ in 0..ticks {
                stepped.tick();
            }
            m.advance_to(m.cycle() + ticks);
            assert_eq!(
                m.snapshot(),
                stepped.snapshot(),
                "seed {seed} step {step}: advance_to({ticks}) differs from ticks"
            );
        }
        // Drained: the rest of the jump is a clock move.
        let mut stepped = replica(&m.snapshot());
        for _ in 0..2_000 {
            stepped.tick();
        }
        m.advance_to(m.cycle() + 2_000);
        assert_eq!(m.snapshot(), stepped.snapshot(), "seed {seed}: drain");
    }
}

#[test]
fn delivery_bound_is_never_late() {
    let mut checked = 0u64;
    for seed in seeds() {
        let mut rng = Rng::new(seed);
        let mut m = mesh();
        for _ in 0..12 {
            perturb(&mut m, &mut rng);
            m.advance_to(m.cycle() + rng.below(24));
            // Consume what already arrived, so the probe sees only new
            // deliveries.
            for dst in 0..16 {
                for src in 0..16 {
                    while m.pop_delivered(TileId(dst), TileId(src)).is_some() {}
                }
            }
            let snap = m.snapshot();
            let pairs = pairs_in_flight(&snap);
            if pairs.is_empty() {
                assert_eq!(m.delivery_bound(|_, _| true), u64::MAX);
                continue;
            }
            let pick = pairs[rng.below(pairs.len() as u64) as usize];
            let any = m.delivery_bound(|_, _| true);
            let one = m.delivery_bound(|d, s| (d, s) == pick);
            assert!(any <= one, "seed {seed}: any {any} > pair {one}");
            let mut probe = replica(&snap);
            let mut first = None;
            while probe.cycle() < snap.cycle + 3_000 {
                probe.tick();
                if first.is_none() && pairs.iter().any(|&(d, s)| probe.has_delivered(d, s)) {
                    first = Some(probe.cycle());
                }
                if probe.has_delivered(pick.0, pick.1) {
                    assert!(
                        one <= probe.cycle(),
                        "seed {seed}: {pick:?} bound {one} after delivery at {}",
                        probe.cycle()
                    );
                    checked += 1;
                    break;
                }
            }
            if let Some(first) = first {
                assert!(any <= first, "seed {seed}: bound {any} after {first}");
            }
        }
    }
    assert!(
        checked > seeds().count() as u64,
        "too few deliveries observed"
    );
}
