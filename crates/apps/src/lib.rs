//! # Multi-kernel wearable applications (paper §VI-A, Fig 9)
//!
//! Each application is a 16-node pipelined message-passing graph over
//! the kernels of `stitch-kernels`:
//!
//! - **APP1** [`gesture`] — finger gesture recognition (Fig 7): sensor
//!   preprocessing → 6 parallel FFTs → feature update → filter → 6
//!   parallel IFFTs (with extra update processing) → classification;
//! - **APP2** [`cnn`] — CNN image recognition: 13 parallel convolution
//!   kernels → two pooling layers → fully-connected layer;
//! - **APP3** [`svm_app`] — anomaly recognition + encryption: histogram
//!   features → SVM classifiers → AES encryption → CRC integrity;
//! - **APP4** [`transport`] — transport context detection: AES
//!   decryption → DTW context matching → collector + AES re-encryption.
//!
//! A node's wiring (which peers it receives from / sends to, with
//! explicit buffer addresses and word counts) lives in [`NodeSpec`];
//! [`build_node_program`] wraps the kernel's compute body into the
//! per-frame receive/compute/send loop once the stitcher has fixed the
//! node→tile placement; [`build_placement_free_program`] builds the same
//! loop with every peer on one tile, for profiling.

use stitch_isa::program::{Program, ProgramBuilder};
use stitch_isa::{Cond, IsaError, Reg};
use stitch_kernels as kernels;
use stitch_kernels::{Kernel, OUTPUT_BASE, SPM};
use stitch_sim::TileId;

/// One dataflow edge endpoint of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Peer node index within the application.
    pub peer: usize,
    /// Local buffer address (receive destination or send source).
    pub addr: u32,
    /// Transfer length in words.
    pub words: u32,
}

/// One node of an application graph.
pub struct NodeSpec {
    /// Unique instance name (e.g. `"fft3"`).
    pub name: String,
    /// The kernel computing this node's stage.
    pub kernel: Box<dyn Kernel>,
    /// Default (pipeline-order) tile before stitching relocates it.
    pub home: TileId,
    /// Incoming edges, received in order each frame.
    pub recvs: Vec<Edge>,
    /// Outgoing edges, sent in order each frame.
    pub sends: Vec<Edge>,
}

/// A complete application.
pub struct App {
    /// Paper name (`APP1`..`APP4`).
    pub name: &'static str,
    /// Long name.
    pub title: &'static str,
    /// The 16 nodes.
    pub nodes: Vec<NodeSpec>,
}

impl App {
    /// Sanity-checks the graph: edge symmetry and matching word counts.
    ///
    /// # Panics
    ///
    /// Panics on malformed graphs (used in tests and constructors).
    pub fn validate(&self) {
        assert!(self.nodes.len() <= 16, "{}: too many nodes", self.name);
        for (i, n) in self.nodes.iter().enumerate() {
            for r in &n.recvs {
                let peer = &self.nodes[r.peer];
                let matching = peer
                    .sends
                    .iter()
                    .find(|s| s.peer == i && s.words == r.words);
                assert!(
                    matching.is_some(),
                    "{}: {} receives {} words from {} without a matching send",
                    self.name,
                    n.name,
                    r.words,
                    peer.name
                );
            }
            for s in &n.sends {
                let peer = &self.nodes[s.peer];
                assert!(
                    peer.recvs.iter().any(|r| r.peer == i && r.words == s.words),
                    "{}: {} sends to {} without a matching recv",
                    self.name,
                    n.name,
                    peer.name
                );
            }
        }
    }

    /// All four applications of the evaluation.
    #[must_use]
    pub fn all() -> Vec<App> {
        vec![gesture(), cnn(), svm_app(), transport()]
    }
}

/// Builds the runnable program for one node, given the final node→tile
/// placement. `frames` is the number of frames the pipeline processes.
///
/// # Errors
///
/// Propagates [`stitch_isa::IsaError`] from program assembly (an unbound
/// label in the node kernel's compute body).
pub fn build_node_program(
    app: &App,
    node: usize,
    frames: u32,
    tile_of: &[TileId],
) -> Result<Program, IsaError> {
    let n = &app.nodes[node];
    let mut b = ProgramBuilder::new();
    if n.recvs.is_empty() {
        // Source nodes own their input data.
        b.data_segment(n.kernel.spec().input_addr, n.kernel.input());
    }
    let frames_reg = Reg::R27;
    b.li(frames_reg, i64::from(frames));
    let frame_loop = b.bound_label();
    for r in &n.recvs {
        b.li(Reg::R26, i64::from(tile_of[r.peer].0));
        b.li(Reg::R25, i64::from(r.addr as i32));
        b.li(Reg::R24, i64::from(r.words));
        b.recv(Reg::R26, Reg::R25, Reg::R24);
    }
    n.kernel.emit_compute(&mut b);
    for s in &n.sends {
        b.li(Reg::R26, i64::from(tile_of[s.peer].0));
        b.li(Reg::R25, i64::from(s.addr as i32));
        b.li(Reg::R24, i64::from(s.words));
        b.send(Reg::R26, Reg::R25, Reg::R24);
    }
    b.addi(frames_reg, frames_reg, -1);
    b.branch(Cond::Ne, frames_reg, Reg::R0, frame_loop);
    b.halt();
    b.build()
}

/// Builds one node's program with its placement erased: every peer is
/// wired to tile 0.
///
/// The profile of this program is the profile of every placement of the
/// node, so one profile serves every re-stitch of it. Wiring changes
/// only the peer operands of the node's sends and receives, a tile
/// index always lowers to one `addi`, and the profiler never reads those
/// operands: it discards sends and zero-fills receives. The same
/// instructions therefore retire the same number of times under any
/// placement. `crates/stitch/tests/placement.rs` pins this for every
/// node of every app.
///
/// # Errors
///
/// As [`build_node_program`].
pub fn build_placement_free_program(
    app: &App,
    node: usize,
    frames: u32,
) -> Result<Program, IsaError> {
    build_node_program(app, node, frames, &vec![TileId(0); app.nodes.len()])
}

fn node(
    name: impl Into<String>,
    kernel: Box<dyn Kernel>,
    home: u8,
    recvs: Vec<Edge>,
    sends: Vec<Edge>,
) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        kernel,
        home: TileId(home),
        recvs,
        sends,
    }
}

/// APP1 — finger gesture recognition (paper Fig 7).
///
/// `sensor -> fft x6 -> update -> filter -> ifft x6 -> classify`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn gesture() -> App {
    let mut nodes = Vec::new();
    // Node 0: sensor preprocessing (source), produces a 128-word frame
    // broadcast to the six FFT nodes (two sensors x three axes).
    let fft_in = 128u32;
    nodes.push(node(
        "sensor",
        Box::new(kernels::signal::UpdateFeature::new(fft_in)),
        0,
        vec![],
        (1..=6)
            .map(|i| Edge {
                peer: i,
                addr: OUTPUT_BASE,
                words: fft_in,
            })
            .collect(),
    ));
    // Nodes 1..=6: FFTs.
    for i in 0..6usize {
        nodes.push(node(
            format!("fft{i}"),
            Box::new(kernels::fft::Fft::new(64)),
            (i + 1) as u8,
            vec![Edge {
                peer: 0,
                addr: SPM,
                words: fft_in,
            }],
            vec![Edge {
                peer: 7,
                addr: OUTPUT_BASE,
                words: fft_in,
            }],
        ));
    }
    // Node 7: update feature over the six concatenated spectra.
    nodes.push(node(
        "update",
        Box::new(kernels::signal::UpdateFeature::new(768)),
        7,
        (0..6)
            .map(|i| Edge {
                peer: 1 + i,
                addr: SPM + (i as u32) * fft_in * 4,
                words: fft_in,
            })
            .collect(),
        vec![Edge {
            peer: 8,
            addr: OUTPUT_BASE,
            words: 256,
        }],
    ));
    // Node 8: FIR filter over a 256-sample band.
    nodes.push(node(
        "filter",
        Box::new(kernels::signal::FirFilter::new(256, 8)),
        8,
        vec![Edge {
            peer: 7,
            addr: SPM,
            words: 256,
        }],
        (0..6)
            .map(|i| Edge {
                peer: 9 + i,
                // Overlapping 128-word bands within the 249-word output.
                addr: OUTPUT_BASE + (i as u32) * 24 * 4,
                words: fft_in,
            })
            .collect(),
    ));
    // Nodes 9..=14: IFFTs (with the extra update pass).
    for i in 0..6usize {
        nodes.push(node(
            format!("ifft{i}"),
            Box::new(kernels::fft::Ifft::new(64)),
            (9 + i) as u8,
            vec![Edge {
                peer: 8,
                addr: SPM,
                words: fft_in,
            }],
            // Forward a 32-word energy band to the classifier.
            vec![Edge {
                peer: 15,
                addr: OUTPUT_BASE + 128 * 4,
                words: 32,
            }],
        ));
    }
    // Node 15: classifier over the six energy bands.
    nodes.push(node(
        "classify",
        Box::new(kernels::signal::Classify::new(192, 4)),
        15,
        (0..6)
            .map(|i| Edge {
                peer: 9 + i,
                addr: SPM + (i as u32) * 32 * 4,
                words: 32,
            })
            .collect(),
        vec![],
    ));
    let app = App {
        name: "APP1",
        title: "finger gesture recognition",
        nodes,
    };
    app.validate();
    app
}

/// APP2 — CNN image recognition: 13 parallel convolutions, two pooling
/// layers, one fully-connected layer.
#[must_use]
pub fn cnn() -> App {
    let mut nodes = Vec::new();
    // Nodes 0..=12: convolution sources over image tiles.
    for i in 0..13usize {
        nodes.push(node(
            format!("2dconv{i}"),
            Box::new(kernels::conv::Conv2d::new(16, 16)),
            i as u8,
            vec![],
            // Each contributes a 64-word activation slice to pool1.
            vec![Edge {
                peer: 13,
                addr: OUTPUT_BASE,
                words: 64,
            }],
        ));
    }
    // Node 13: first pooling layer over 13 x 64 = 832 activations.
    nodes.push(node(
        "pool1",
        Box::new(kernels::conv::Pool2x2::new(32, 26)),
        13,
        (0..13)
            .map(|i| Edge {
                peer: i,
                addr: SPM + (i as u32) * 64 * 4,
                words: 64,
            })
            .collect(),
        vec![Edge {
            peer: 14,
            addr: OUTPUT_BASE,
            words: 208,
        }],
    ));
    // Node 14: second pooling layer (26 x 8 = 208 inputs).
    nodes.push(node(
        "pool2",
        Box::new(kernels::conv::Pool2x2::new(26, 8)),
        14,
        vec![Edge {
            peer: 13,
            addr: SPM,
            words: 208,
        }],
        vec![Edge {
            peer: 15,
            addr: OUTPUT_BASE,
            words: 52,
        }],
    ));
    // Node 15: fully-connected classifier.
    nodes.push(node(
        "fc",
        Box::new(kernels::conv::FullyConnected::new(52, 10)),
        15,
        vec![Edge {
            peer: 14,
            addr: SPM,
            words: 52,
        }],
        vec![],
    ));
    let app = App {
        name: "APP2",
        title: "CNN image recognition",
        nodes,
    };
    app.validate();
    app
}

/// APP3 — SVM anomaly recognition with encryption of anomalous data.
#[must_use]
pub fn svm_app() -> App {
    let mut nodes = Vec::new();
    // 4 lanes of histogram -> svm -> aes -> crc, grouped by stage so
    // node indices are 0..4 histograms, 4..8 svms, 8..12 aes, 12..16 crc.
    for lane in 0..4usize {
        // The feature extractor is the heavy stage: a 768-sample
        // histogram whose bin updates are scratchpad load-increment-store
        // chains (ISEs the LOCUS SFU cannot express).
        nodes.push(node(
            format!("histogram{lane}"),
            Box::new(kernels::misc::Histogram::new(768)),
            lane as u8,
            vec![],
            vec![Edge {
                peer: 4 + lane,
                addr: OUTPUT_BASE,
                words: 64,
            }],
        ));
    }
    for lane in 0..4usize {
        nodes.push(node(
            format!("svm{lane}"),
            Box::new(kernels::misc::Svm::new(64, 4)),
            (4 + lane) as u8,
            vec![Edge {
                peer: lane,
                addr: SPM,
                words: 64,
            }],
            // Forward the (anomalous) feature block for encryption.
            vec![Edge {
                peer: 8 + lane,
                addr: SPM,
                words: 16,
            }],
        ));
    }
    for lane in 0..4usize {
        nodes.push(node(
            format!("aes{lane}"),
            Box::new(kernels::aes::AesEnc::new(1)),
            (8 + lane) as u8,
            vec![Edge {
                peer: 4 + lane,
                addr: SPM,
                words: 16,
            }],
            vec![Edge {
                peer: 12 + lane,
                addr: OUTPUT_BASE,
                words: 16,
            }],
        ));
    }
    for lane in 0..4usize {
        nodes.push(node(
            format!("crc{lane}"),
            // The integrity checksum runs over a 32-word window that the
            // 16-word cipher blocks stream through.
            Box::new(kernels::misc::Crc32::new(32)),
            (12 + lane) as u8,
            vec![Edge {
                peer: 8 + lane,
                addr: SPM,
                words: 16,
            }],
            vec![],
        ));
    }
    let app = App {
        name: "APP3",
        title: "SVM anomaly recognition + encryption",
        nodes,
    };
    app.validate();
    app
}

/// APP4 — transport context detection: decrypt sensor data, DTW context
/// matching, collect + re-encrypt.
#[must_use]
pub fn transport() -> App {
    let mut nodes = Vec::new();
    // 5 lanes of aesdec -> dtw; dtw results go to one collector, dtw
    // inputs are re-encrypted by 5 aes nodes. Grouped by stage: nodes
    // 0..5 aesdec, 5..10 dtw, 10..15 aes, 15 collector.
    for lane in 0..5usize {
        nodes.push(node(
            format!("aesdec{lane}"),
            Box::new(kernels::aes::AesDec::new(1)),
            lane as u8,
            vec![],
            vec![Edge {
                peer: 5 + lane,
                addr: OUTPUT_BASE,
                words: 16,
            }],
        ));
    }
    for lane in 0..5usize {
        nodes.push(node(
            format!("dtw{lane}"),
            // Context matching: the decrypted 16-word blocks stream into
            // the observation sequence of a 64-point DTW.
            Box::new(kernels::dtw::Dtw::new(64)),
            (5 + lane) as u8,
            vec![Edge {
                peer: lane,
                addr: SPM + 64 * 4,
                words: 16,
            }],
            vec![
                Edge {
                    peer: 15,
                    addr: OUTPUT_BASE,
                    words: 1,
                },
                Edge {
                    peer: 10 + lane,
                    addr: SPM,
                    words: 16,
                },
            ],
        ));
    }
    for lane in 0..5usize {
        nodes.push(node(
            format!("aes{lane}"),
            Box::new(kernels::aes::AesEnc::new(1)),
            (10 + lane) as u8,
            vec![Edge {
                peer: 5 + lane,
                addr: SPM,
                words: 16,
            }],
            vec![],
        ));
    }
    // Node 15: context collector (small SVM over the five distances).
    nodes.push(node(
        "context",
        Box::new(kernels::misc::Svm::new(5, 3)),
        15,
        (0..5)
            .map(|lane| Edge {
                peer: 5 + lane,
                addr: SPM + (lane as u32) * 4,
                words: 1,
            })
            .collect(),
        vec![],
    ));
    let app = App {
        name: "APP4",
        title: "transport context detection",
        nodes,
    };
    app.validate();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_sim::{Chip, ChipConfig};

    #[test]
    fn all_apps_validate_and_have_16_nodes() {
        for app in App::all() {
            app.validate();
            assert_eq!(app.nodes.len(), 16, "{}", app.name);
            // Home tiles are distinct.
            let mut homes: Vec<u8> = app.nodes.iter().map(|n| n.home.0).collect();
            homes.sort_unstable();
            homes.dedup();
            assert_eq!(homes.len(), 16, "{}", app.name);
        }
    }

    #[test]
    fn node_programs_build() {
        for app in App::all() {
            let tiles: Vec<TileId> = app.nodes.iter().map(|n| n.home).collect();
            for i in 0..app.nodes.len() {
                let p = build_node_program(&app, i, 3, &tiles).unwrap();
                assert!(p.instrs.len() > 4, "{}: {}", app.name, app.nodes[i].name);
            }
        }
    }

    /// End-to-end: every application runs to completion on the baseline
    /// chip without deadlock, for a few frames.
    #[test]
    fn apps_run_on_baseline_chip() {
        for app in App::all() {
            let tiles: Vec<TileId> = app.nodes.iter().map(|n| n.home).collect();
            let mut chip = Chip::new(ChipConfig::baseline_16());
            for i in 0..app.nodes.len() {
                chip.load_program(tiles[i], &build_node_program(&app, i, 2, &tiles).unwrap())
                    .unwrap();
            }
            let summary = chip
                .run(2_000_000_000)
                .unwrap_or_else(|e| panic!("{} failed: {e}", app.name));
            assert!(summary.cycles > 0, "{}", app.name);
            assert!(
                summary.mesh.packets_delivered > 0,
                "{}: pipeline must exchange messages",
                app.name
            );
        }
    }
}
