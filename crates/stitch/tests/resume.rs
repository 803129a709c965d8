//! Crash-safe sweep resume: a sweep that takes each point through
//! `ArtifactStore::load_or_store` must skip points whose stored records
//! are valid, recompute points whose records are missing or corrupt,
//! and reassemble identical results either way.

use stitch::{AppRun, Arch, ArtifactStore, DecodeError, Rec, RecView, SweepPoint, Workbench};
use stitch_apps::App;

/// Small per-point record: enough to prove bit-identical reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pt {
    fps_bits: u64,
    cycles: u64,
}

impl Pt {
    fn of(run: &AppRun) -> Pt {
        Pt {
            fps_bits: run.throughput_fps.to_bits(),
            cycles: run.summary.cycles,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut r = Rec::new();
        r.u64(self.fps_bits);
        r.u64(self.cycles);
        r.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Pt, DecodeError> {
        let mut v = RecView::new(bytes);
        let fps_bits = v.u64()?;
        let cycles = v.u64()?;
        v.finish()?;
        Ok(Pt { fps_bits, cycles })
    }
}

fn key_of(p: SweepPoint) -> String {
    format!("resume-test-{}-{:?}", p.app, p.arch)
}

/// Runs the sweep and returns (results, points freshly computed).
fn sweep_once(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    store: &ArtifactStore,
) -> (Vec<Pt>, usize) {
    let mut computed = 0;
    let mut recs = Vec::new();
    for &p in points {
        let rec = store
            .load_or_store(&key_of(p), Pt::decode, Pt::encode, || {
                computed += 1;
                let run = ws.run_app(&apps[p.app], p.arch, 2);
                Pt::of(&run.expect("sweep point succeeds"))
            })
            .expect("persist sweep point");
        recs.push(rec);
    }
    (recs, computed)
}

#[test]
fn resumable_sweep_skips_completed_points_and_recovers_from_corruption() {
    let dir = std::env::temp_dir().join(format!("stitch-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open point store");
    let apps = App::all();
    let points = [
        SweepPoint {
            app: 0,
            arch: Arch::Baseline,
        },
        SweepPoint {
            app: 0,
            arch: Arch::Stitch,
        },
    ];
    let mut ws = Workbench::new();

    // Fresh store: everything computes, everything is persisted.
    let (first, computed) = sweep_once(&mut ws, &apps, &points, &store);
    assert_eq!(
        computed,
        points.len(),
        "fresh sweep must compute all points"
    );
    assert_eq!(store.completed(), points.len());

    // Complete store: nothing recomputes, results are bit-identical.
    let (second, computed) = sweep_once(&mut ws, &apps, &points, &store);
    assert_eq!(computed, 0, "complete store must skip every point");
    assert_eq!(second, first, "resumed results must be bit-identical");

    // One record lost (as after a kill): exactly that point recomputes,
    // and the result still matches.
    let lost = key_of(points[1]);
    for e in std::fs::read_dir(&dir).expect("read point dir").flatten() {
        if e.file_name().to_string_lossy().contains("Stitch") {
            std::fs::remove_file(e.path()).expect("drop one point");
        }
    }
    assert!(store.load(&lost).is_none(), "point file was not removed");
    let (third, computed) = sweep_once(&mut ws, &apps, &points, &store);
    assert_eq!(computed, 1, "only the lost point recomputes");
    assert_eq!(third, first);

    // One record corrupted: reads as absent, recomputes, heals.
    for e in std::fs::read_dir(&dir).expect("read point dir").flatten() {
        if e.file_name().to_string_lossy().contains("Baseline") {
            std::fs::write(e.path(), b"garbage").expect("corrupt point");
        }
    }
    let (fourth, computed) = sweep_once(&mut ws, &apps, &points, &store);
    assert_eq!(computed, 1, "only the corrupt point recomputes");
    assert_eq!(fourth, first);
    let (_, computed) = sweep_once(&mut ws, &apps, &points, &store);
    assert_eq!(computed, 0, "healed store skips everything again");

    let _ = std::fs::remove_dir_all(&dir);
}
