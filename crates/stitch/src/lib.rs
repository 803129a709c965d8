//! # Stitch — fusible heterogeneous accelerators enmeshed with a
//! # many-core architecture
//!
//! End-to-end reproduction of *Tan, Karunaratne, Mitra, Peh: "Stitch:
//! Fusible Heterogeneous Accelerators Enmeshed with Many-Core
//! Architecture for Wearables" (ISCA 2018)* as a Rust workspace.
//!
//! This facade crate wires the subsystem crates together and exposes the
//! [`Workbench`]: compile kernels through the ISE toolchain, run the
//! stitching algorithm, simulate the 16-tile chip, and evaluate the
//! power/area models — everything the paper's tables and figures need.
//!
//! ```no_run
//! use stitch::{Arch, Workbench};
//!
//! # fn main() -> Result<(), stitch::Error> {
//! let mut bench = Workbench::new();
//! let app = stitch_apps::gesture();
//! let run = bench.run_app(&app, Arch::Stitch, 10)?;
//! println!("{}: {:.1} frames/s at {:.1} mW", app.name, run.throughput_fps, run.power_mw);
//! # Ok(())
//! # }
//! ```
//!
//! Subsystems (see DESIGN.md for the full inventory):
//!
//! | crate | subsystem |
//! |---|---|
//! | `stitch-isa` | W32 instruction set, assembler, binary encoding |
//! | `stitch-mem` | caches, scratchpads, DRAM |
//! | `stitch-patch` | polymorphic patch datapaths + control words |
//! | `stitch-noc` | buffered mesh + compiler-scheduled inter-patch NoC |
//! | `stitch-cpu` | in-order core model |
//! | `stitch-sim` | 16-tile chip simulator |
//! | `stitch-compiler` | ISE identification, mapping, rewriting, stitching |
//! | `stitch-kernels` | wearable kernels (W32 + golden references) |
//! | `stitch-apps` | APP1–APP4 pipelines |
//! | `stitch-power` | 40 nm area/power models |

mod artifact;
pub mod workbench;

pub use stitch_cache::{ArtifactStore, DecodeError, Rec, RecView};
pub use stitch_compiler::{PatchConfig, StitchPlan};
pub use stitch_patch::PatchClass;
pub use stitch_sim::{
    to_chrome_trace, Arch, BudgetResource, Chip, ChipConfig, EventKind, FaultKind, FaultPlan,
    FaultSpace, FaultStats, JsonValue, RunBudget, RunSummary, SimError, TileId, TraceCapture,
    TraceConfig, TraceEvent, TraceWindows,
};
pub use workbench::{AppRun, Error, KernelRow, SimEngine, SweepPoint, Workbench};

/// Frames simulated per application run in the default experiments —
/// enough for the pipeline to reach steady state.
pub const DEFAULT_FRAMES: u32 = 12;

/// The sweep manifest: `ArtifactStore::load_or_store` keeps each
/// completed point as a [`Rec`]-encoded record in an [`ArtifactStore`]
/// opened on a `*.points/` directory. These tests pin, through the re-exports sweep
/// drivers use, the properties a resumed sweep relies on.
#[cfg(test)]
mod manifest {
    mod tests {
        use crate::{ArtifactStore, Rec, RecView};
        use std::fs;
        use std::path::PathBuf;

        fn tmp_points(tag: &str) -> ArtifactStore {
            let dir = std::env::temp_dir()
                .join(format!("stitch-points-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            ArtifactStore::open(dir).expect("open point store")
        }

        /// Stores a new point and returns the one file it added.
        fn store_new(m: &ArtifactStore, key: &str, payload: &[u8]) -> PathBuf {
            let files = || -> Vec<PathBuf> {
                let rd = fs::read_dir(m.dir()).expect("read point dir");
                rd.flatten().map(|e| e.path()).collect()
            };
            let before = files();
            m.store(key, payload).expect("store");
            let mut added: Vec<PathBuf> = files()
                .into_iter()
                .filter(|p| !before.contains(p))
                .collect();
            assert_eq!(added.len(), 1, "{key} added {added:?}");
            added.pop().expect("one file")
        }

        #[test]
        fn store_then_load_round_trips() {
            let m = tmp_points("roundtrip");
            let mut rec = Rec::new();
            rec.f64(123.456);
            rec.u64(42);
            rec.words(&[1, 2, 3]);
            rec.str("APP1");
            let payload = rec.into_bytes();
            store_new(&m, "APP1-clean", &payload);
            assert_eq!(m.completed(), 1);

            let bytes = m.load("APP1-clean").expect("loaded");
            assert_eq!(bytes, payload);
            let mut v = RecView::new(&bytes);
            assert_eq!(v.f64(), Ok(123.456));
            assert_eq!(v.u64(), Ok(42));
            assert_eq!(v.words(), Ok(vec![1, 2, 3]));
            assert_eq!(v.str(), Ok("APP1"));
            assert_eq!(v.finish(), Ok(()));
            let _ = fs::remove_dir_all(m.dir());
        }

        #[test]
        fn missing_truncated_and_corrupted_points_read_as_absent() {
            let m = tmp_points("invalid");
            assert_eq!(m.load("nope"), None);

            let path = store_new(&m, "pt", b"payload");
            let full = fs::read(&path).expect("read back");
            // Truncation at every prefix reads as absent, never panics.
            for cut in 0..full.len() {
                fs::write(&path, &full[..cut]).expect("truncate");
                assert_eq!(m.load("pt"), None, "cut at {cut} accepted");
            }
            // Any single-byte corruption breaks the checksum.
            for i in 0..full.len() {
                let mut dented = full.clone();
                dented[i] ^= 0x40;
                fs::write(&path, &dented).expect("corrupt");
                assert_eq!(m.load("pt"), None, "flip at {i} accepted");
            }
            // Restored intact, it loads again.
            fs::write(&path, &full).expect("restore");
            assert_eq!(m.load("pt").as_deref(), Some(&b"payload"[..]));
            let _ = fs::remove_dir_all(m.dir());
        }

        #[test]
        fn renamed_point_files_cannot_impersonate_other_keys() {
            let m = tmp_points("rename");
            let a = store_new(&m, "point-a", b"aaa");
            let b = store_new(&m, "point-b", b"bbb");
            fs::rename(&a, &b).expect("rename");
            assert_eq!(m.load("point-b"), None, "key binding not enforced");
            let _ = fs::remove_dir_all(m.dir());
        }

        #[test]
        fn hostile_keys_map_to_distinct_files() {
            let m = tmp_points("keys");
            let keys = [("a/b", &b"one"[..]), ("a_b", b"two"), ("a:b", b"three")];
            for (key, payload) in keys {
                store_new(&m, key, payload);
            }
            for (key, payload) in keys {
                assert_eq!(m.load(key).as_deref(), Some(payload), "{key}");
            }
            let _ = fs::remove_dir_all(m.dir());
        }

        #[test]
        fn clear_removes_points_and_leftover_tmps() {
            let m = tmp_points("clear");
            store_new(&m, "x", b"1");
            store_new(&m, "y", b"2");
            // Simulate a crash between write and rename.
            fs::write(m.dir().join("z.tmp"), b"partial").expect("tmp");
            assert_eq!(m.completed(), 2);
            m.clear().expect("clear");
            assert_eq!(m.completed(), 0);
            assert_eq!(m.load("x"), None);
            assert!(!m.dir().join("z.tmp").exists());
            let _ = fs::remove_dir_all(m.dir());
        }

        #[test]
        fn overwriting_a_point_is_atomic_last_writer_wins() {
            let m = tmp_points("overwrite");
            store_new(&m, "k", b"old");
            m.store("k", b"new").expect("store");
            assert_eq!(m.load("k").as_deref(), Some(&b"new"[..]));
            assert_eq!(m.completed(), 1);
            let _ = fs::remove_dir_all(m.dir());
        }
    }
}
