//! Quantized integer-compare inference — the one serving engine of the
//! compile-at-publish pipeline (DESIGN.md §12).
//!
//! [`FlatModel`] walks nodes by comparing raw `f32` feature values against
//! `f32` thresholds, one dependent load per level: the fig. 7 benchmark
//! shows that walk is latency-bound at roughly the same preds/s no matter
//! the thread count. A [`QuantizedModel`] is compiled once at model-publish
//! time from the flat layout alone:
//!
//! - each feature's encoding grid is the sorted set of that feature's
//!   distinct split thresholds, and every split threshold is replaced by a
//!   **u16 cut index** into it; rows are pre-encoded once into u16 bin
//!   indices by a reusable scratch encoder
//!   ([`QuantizedModel::encode_row_into`]), so the walk compares integers
//!   against integers;
//! - each node packs `(feature, cut, left-child)` into one `u64` — eight
//!   nodes per cache line — with sibling children adjacent
//!   (`right = left + 1`), so descending is the branchless
//!   `child + (bin >= cut)`;
//! - the batch kernel does not walk trees at all: at compile time every
//!   tree's leaves are numbered left to right into a u64 bitvector and
//!   every split gets a mask that clears its left-subtree leaves. Scoring a
//!   row applies, per feature, the masks of the splits whose cut the row's
//!   bin reaches (`bin >= cut` ⟺ the split sends the row right), sorted by
//!   cut so the scan stops early; each tree's exit leaf is then the lowest
//!   surviving bit (the QuickScorer scheme of Lucchese et al., SIGIR'15).
//!   The mask stream is read sequentially and every AND is independent, so
//!   [`QuantizedModel::predict_proba_binned_batch`] is throughput-bound
//!   where the per-row walk is latency-bound on dependent node loads —
//!   this is where the speedup over the flat walk comes from. Ensembles
//!   with a tree of more than 64 leaves fall back to a fixed-depth
//!   interleaved walk over [`BLOCK`] row cursors (leaves self-loop, so no
//!   per-row exit test is needed);
//! - [`QuantizedModel::prune`] specializes a compiled model against
//!   [`Predicate`] invariants the serving shard already knows (for example:
//!   the free-bytes feature never exceeds pool capacity), deleting branches
//!   no reachable row can take before the model is handed to the shard.
//!
//! ## Exactness
//!
//! A split `v <= t` becomes `bin(v) < cut`, where `bin(v)` counts grid
//! values `< v` and `cut` counts grid values `<= t`. Because `t` is itself
//! on the grid, `bin(v) < cut ⟺ v <= t` for every `v`: every compare, and
//! so every score, is bit-equal to the flat walk for every model and every
//! row.
//!
//! Missing features (short rows) encode as [`MISSING_BIN`], which no cut
//! exceeds, so they take the right branch exactly like the recursive and
//! flat walks; `+inf` padding encodes past every finite threshold and
//! behaves the same way. `NaN` also maps to [`MISSING_BIN`] (the raw walks
//! send NaN right because `NaN <= t` is false).

use std::collections::VecDeque;

use crate::boosting::{sigmoid, Model};
use crate::flat::{FlatModel, LEAF};

/// Bin index used for missing (or NaN) feature values in encoded rows.
/// Larger than any real cut, so missing always takes the right branch.
pub const MISSING_BIN: u16 = u16::MAX;

/// Row cursors interleaved per tree by the batch kernel.
pub const BLOCK: usize = 64;

/// An inclusive raw-value invariant over one feature, used by
/// [`QuantizedModel::prune`]: "feature `feature` is always within
/// `[min, max]`". Pruning is only legal when every scored row actually
/// satisfies the predicate **and** the feature is always present — rows
/// that violate it (including rows where the feature is missing) may be
/// routed differently by the pruned model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Predicate {
    /// Feature index the invariant constrains.
    pub feature: usize,
    /// Smallest value the feature can take (inclusive).
    pub min: f32,
    /// Largest value the feature can take (inclusive).
    pub max: f32,
}

impl Predicate {
    /// Convenience constructor for a `[min, max]` range invariant.
    pub fn range(feature: usize, min: f32, max: f32) -> Self {
        Predicate { feature, min, max }
    }
}

/// A trained ensemble compiled for integer-compare serving (see the module
/// docs). Built once at model-publish time via [`QuantizedModel::compile`];
/// never persisted — artifacts store the model, and the loader recompiles.
#[derive(Clone, Debug)]
pub struct QuantizedModel {
    init_score: f64,
    num_features: usize,
    /// Per-feature encoding grid: the distinct thresholds of this model's
    /// splits on the feature, sorted ascending. `enc(f, v)` = number of
    /// `grid[f]` values `< v`.
    grid: Vec<Vec<f32>>,
    /// Packed nodes: `feature << 48 | cut << 32 | left_child`. Leaves are
    /// self-loops (`feature 0, cut 0, left_child = self - 1`).
    nodes: Vec<u64>,
    /// Leaf flag per node (compile/prune bookkeeping, not read by the
    /// kernel).
    leaf: Vec<bool>,
    /// Leaf output per node (0 for splits).
    value: Vec<f64>,
    /// Root node per tree (absolute index into `nodes`).
    roots: Vec<u32>,
    /// Fixed walk depth per tree: after this many branchless steps every
    /// row cursor sits on a (self-looping) leaf.
    depth: Vec<u32>,
    /// Mask-kernel evaluation tables; `None` when some tree exceeds 64
    /// leaves, in which case the batch kernel falls back to the
    /// fixed-depth interleaved walk.
    masks: Option<MaskTables>,
}

/// One mask-kernel entry while building: when a row's bin for `feature`
/// reaches `cut` (`bin >= cut`, i.e. the split sends the row right),
/// `mask` clears the split's left-subtree leaves from tree `tree`'s
/// candidate bitvector. Flattened into [`MaskTables`]' parallel arrays
/// before serving.
#[derive(Clone, Copy, Debug)]
struct MaskEntry {
    mask: u64,
    feature: u16,
    cut: u16,
    tree: u16,
}

/// The QuickScorer-style batch-evaluation tables (module docs), stored as
/// feature-grouped parallel arrays (one slot per split across all trees).
/// The hot path is the 8-lane block kernel over `masks32`: eight rows'
/// candidate words for one tree sit in a single 32-byte slab, each entry
/// ANDs all eight with a branchless arithmetic select, and the entry
/// stream is read once per block instead of once per row. Ensembles with
/// a tree wider than 32 leaves drop `masks32` and serve through the
/// scalar u64 kernel; wider than 64 leaves, the tables are not built at
/// all and the fixed-depth walk serves.
#[derive(Clone, Debug, Default)]
struct MaskTables {
    /// Bin cut of each entry (`bin >= cut` applies the mask).
    cuts: Vec<u16>,
    /// Owning tree of each entry.
    trees: Vec<u16>,
    /// Full-width candidate masks (used by the u64 scalar kernel).
    masks: Vec<u64>,
    /// Low words of `masks`; populated only when every tree has at most
    /// 32 leaves, which is what the 8-lane u32 block kernel requires.
    masks32: Vec<u32>,
    /// Entries `feat_off[f]..feat_off[f + 1]` belong to feature `f`.
    feat_off: Vec<u32>,
    /// Features that own at least one entry — the block kernel transposes
    /// and scans only these columns.
    used: Vec<u32>,
    /// First slot of each tree's leaves in `leaf_value`.
    leaf_base: Vec<u32>,
    /// Leaf outputs, tree-major, leaves left to right within a tree.
    leaf_value: Vec<f64>,
}

/// Tree-lifting state feeding [`MaskTables::build`].
#[derive(Default)]
struct MaskBuilder {
    entries: Vec<MaskEntry>,
    leaf_base: Vec<u32>,
    leaf_value: Vec<f64>,
    /// Widest tree seen, in leaves.
    max_leaves: u32,
    /// Set when some subtree's leaf range escaped the u64 budget.
    overflow: bool,
}

impl MaskTables {
    /// Builds the tables, or `None` when some tree has more than 64 leaves
    /// (the walk kernel serves those ensembles).
    fn build(trees: &[TmpNode], num_features: usize) -> Option<MaskTables> {
        assert!(
            trees.len() <= usize::from(u16::MAX),
            "tree index must fit in u16"
        );
        let mut b = MaskBuilder {
            leaf_base: Vec::with_capacity(trees.len()),
            ..MaskBuilder::default()
        };
        for (t, tree) in trees.iter().enumerate() {
            let base = b.leaf_value.len() as u32;
            b.leaf_base.push(base);
            let leaves = b.add_tree(tree, t as u16, base);
            b.max_leaves = b.max_leaves.max(leaves);
            if leaves > 64 || b.overflow {
                return None;
            }
        }
        b.entries.sort_by_key(|e| e.feature);
        let mut tables = MaskTables {
            leaf_base: b.leaf_base,
            leaf_value: b.leaf_value,
            ..MaskTables::default()
        };
        for e in &b.entries {
            tables.cuts.push(e.cut);
            tables.trees.push(e.tree);
            tables.masks.push(e.mask);
            if b.max_leaves <= 32 {
                tables.masks32.push(e.mask as u32);
            }
        }
        tables.feat_off = Vec::with_capacity(num_features.max(1) + 1);
        tables.feat_off.push(0);
        for f in 0..num_features.max(1) {
            let prev = *tables.feat_off.last().expect("seeded with 0") as usize;
            let n = b.entries[prev..]
                .iter()
                .take_while(|e| usize::from(e.feature) == f)
                .count();
            tables.feat_off.push((prev + n) as u32);
            if n > 0 {
                tables.used.push(f as u32);
            }
        }
        Some(tables)
    }
}

impl MaskBuilder {
    /// In-order leaf numbering plus one mask entry per split; returns the
    /// subtree's leaf count. Masks use tree-local leaf indices; bits past
    /// a small tree's leaf count stay set, which is harmless — the exit
    /// leaf is the *lowest* surviving bit and the true exit leaf always
    /// survives (no false node's mask covers it).
    fn add_tree(&mut self, node: &TmpNode, tree: u16, base: u32) -> u32 {
        match node {
            TmpNode::Leaf { value } => {
                self.leaf_value.push(*value);
                1
            }
            TmpNode::Split {
                feature,
                cut,
                left,
                right,
                ..
            } => {
                let first = self.leaf_value.len() as u32 - base;
                let left_leaves = self.add_tree(left, tree, base);
                let right_leaves = self.add_tree(right, tree, base);
                if first + left_leaves > 64 {
                    // Oversized tree: the caller discards the tables.
                    self.overflow = true;
                } else {
                    let clear = if left_leaves == 64 {
                        u64::MAX
                    } else {
                        ((1u64 << left_leaves) - 1) << first
                    };
                    self.entries.push(MaskEntry {
                        mask: !clear,
                        feature: *feature,
                        cut: *cut,
                        tree,
                    });
                }
                left_leaves + right_leaves
            }
        }
    }
}

/// Intermediate tree form shared by compile and prune before re-layout.
enum TmpNode {
    Split {
        feature: u16,
        cut: u16,
        left: Box<TmpNode>,
        right: Box<TmpNode>,
    },
    Leaf {
        value: f64,
    },
}

#[inline]
fn pack(feature: u16, cut: u16, child: u32) -> u64 {
    (u64::from(feature) << 48) | (u64::from(cut) << 32) | u64::from(child)
}

/// Breadth-first re-layout of [`TmpNode`] trees into the packed arrays:
/// children placed adjacent, leaves turned into self-loops, per-tree depth
/// recorded for the fixed-depth kernel.
#[derive(Default)]
struct Layout {
    nodes: Vec<u64>,
    leaf: Vec<bool>,
    value: Vec<f64>,
    roots: Vec<u32>,
    depth: Vec<u32>,
}

impl Layout {
    fn push_slot(&mut self) {
        self.nodes.push(0);
        self.leaf.push(false);
        self.value.push(0.0);
    }

    fn set_leaf(&mut self, at: u32, value: f64) {
        // Self-loop: cut 0 always sends the cursor right, and right is
        // `(at - 1) + 1 = at`.
        self.nodes[at as usize] = pack(0, 0, at - 1);
        self.leaf[at as usize] = true;
        self.value[at as usize] = value;
    }

    fn push_tree(&mut self, tree: &TmpNode) {
        let base = self.nodes.len() as u32;
        self.roots.push(base);
        if let TmpNode::Leaf { value } = tree {
            // Constant tree: emit a synthetic always-right split at `base`
            // (cut 0) feeding the self-looping leaf at `base + 1`, so the
            // fixed-depth kernel needs no special case — and so the leaf's
            // `at - 1` self-loop never underflows at absolute index 0.
            self.push_slot();
            self.push_slot();
            self.nodes[base as usize] = pack(0, 0, base);
            self.set_leaf(base + 1, *value);
            self.depth.push(1);
            return;
        }
        self.push_slot();
        let mut max_depth = 0u32;
        let mut queue: VecDeque<(&TmpNode, u32, u32)> = VecDeque::new();
        queue.push_back((tree, base, 0));
        while let Some((node, at, level)) = queue.pop_front() {
            match node {
                TmpNode::Split {
                    feature,
                    cut,
                    left,
                    right,
                } => {
                    let li = self.nodes.len() as u32;
                    self.push_slot();
                    self.push_slot();
                    self.nodes[at as usize] = pack(*feature, *cut, li);
                    queue.push_back((left, li, level + 1));
                    queue.push_back((right, li + 1, level + 1));
                }
                TmpNode::Leaf { value } => {
                    self.set_leaf(at, *value);
                    max_depth = max_depth.max(level);
                }
            }
        }
        self.depth.push(max_depth);
    }
}

/// Recursively lifts one flat-model tree into [`TmpNode`] form, computing
/// each split's cut against the grid: `cut` = number of grid values
/// `<= threshold`, so `bin < cut ⟺ v <= threshold`.
fn tmp_from_flat(flat: &FlatModel, grid: &[Vec<f32>], at: usize) -> TmpNode {
    let f = flat.feature[at];
    if f == LEAF {
        return TmpNode::Leaf {
            value: flat.value[at],
        };
    }
    let t = flat.threshold[at];
    let cut = grid[f as usize].partition_point(|&b| b <= t) as u16;
    TmpNode::Split {
        feature: f as u16,
        cut,
        left: Box::new(tmp_from_flat(flat, grid, flat.left[at] as usize)),
        right: Box::new(tmp_from_flat(flat, grid, flat.right[at] as usize)),
    }
}

impl QuantizedModel {
    /// Compiles a flat model. Build this once at model-publish time; the
    /// encoding grid is the model's own split thresholds, so the result is
    /// bit-equal to the flat walk (module docs).
    ///
    /// # Panics
    ///
    /// Panics if the model has `u16::MAX` or more features, or a feature
    /// with [`MISSING_BIN`] or more distinct split thresholds.
    pub fn compile(flat: &FlatModel) -> Self {
        assert!(
            flat.num_features() < usize::from(u16::MAX),
            "feature index must fit in u16"
        );
        let nf = flat.num_features();

        // Pass 1: per feature, the sorted distinct split thresholds.
        let mut grid: Vec<Vec<f32>> = vec![Vec::new(); nf];
        for at in 0..flat.num_nodes() {
            let f = flat.feature[at];
            if f != LEAF {
                grid[f as usize].push(flat.threshold[at]);
            }
        }
        for g in &mut grid {
            g.sort_by(|a, b| a.partial_cmp(b).expect("split thresholds are comparable"));
            g.dedup();
            assert!(
                g.len() < usize::from(MISSING_BIN),
                "distinct split thresholds per feature must fit below MISSING_BIN"
            );
        }

        // Pass 2: lift each tree, lay it out breadth-first, and build the
        // mask-kernel tables from the same lifted form.
        let trees: Vec<TmpNode> = flat
            .tree_starts
            .windows(2)
            .map(|w| tmp_from_flat(flat, &grid, w[0] as usize))
            .collect();
        let mut layout = Layout::default();
        for tree in &trees {
            layout.push_tree(tree);
        }
        let masks = MaskTables::build(&trees, nf);
        QuantizedModel {
            init_score: flat.init_score,
            num_features: nf,
            grid,
            nodes: layout.nodes,
            leaf: layout.leaf,
            value: layout.value,
            roots: layout.roots,
            depth: layout.depth,
            masks,
        }
    }

    /// Specializes the model against serving-side invariants, dropping
    /// branches no predicate-satisfying row can take. The result scores
    /// **identically to `self`** (bit for bit) on every encoded row whose
    /// constrained features are present and within range; behavior on rows
    /// violating a predicate is unspecified (well-defined, but may differ).
    /// The encoding grid is unchanged, so rows encoded for `self` score
    /// directly through the pruned model.
    pub fn prune(&self, predicates: &[Predicate]) -> QuantizedModel {
        // Per-feature reachable encoded range [lo, hi] (inclusive). An
        // unconstrained feature spans [0, MISSING_BIN].
        let mut lo = vec![0u16; self.num_features.max(1)];
        let mut hi = vec![u16::MAX; self.num_features.max(1)];
        for p in predicates {
            // Skip unknown features and empty/NaN ranges (`min <= max`
            // fails for NaN, which `matches!` on the Ordering makes clear).
            let ordered = matches!(
                p.min.partial_cmp(&p.max),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            if p.feature >= self.num_features || !ordered {
                continue;
            }
            if p.min.is_finite() {
                lo[p.feature] = lo[p.feature].max(self.encode_value(p.feature, p.min));
            }
            if p.max.is_finite() {
                hi[p.feature] = hi[p.feature].min(self.encode_value(p.feature, p.max));
            }
        }
        let trees: Vec<TmpNode> = self
            .roots
            .iter()
            .map(|&root| self.simplify(root as usize, &lo, &hi))
            .collect();
        let mut layout = Layout::default();
        for tree in &trees {
            layout.push_tree(tree);
        }
        let masks = MaskTables::build(&trees, self.num_features);
        QuantizedModel {
            init_score: self.init_score,
            num_features: self.num_features,
            grid: self.grid.clone(),
            nodes: layout.nodes,
            leaf: layout.leaf,
            value: layout.value,
            roots: layout.roots,
            depth: layout.depth,
            masks,
        }
    }

    /// Recursive simplification for [`QuantizedModel::prune`]: a split whose
    /// cut lies entirely above (or at/below) the reachable bin range of its
    /// feature collapses to one child.
    fn simplify(&self, at: usize, lo: &[u16], hi: &[u16]) -> TmpNode {
        if self.leaf[at] {
            return TmpNode::Leaf {
                value: self.value[at],
            };
        }
        let node = self.nodes[at];
        let f = (node >> 48) as usize;
        let cut = (node >> 32) as u16;
        let left = (node as u32) as usize;
        if hi[f] < cut {
            // Every reachable bin goes left.
            return self.simplify(left, lo, hi);
        }
        if lo[f] >= cut {
            // Every reachable bin goes right (also collapses cut-0 splits,
            // which can never send anything left).
            return self.simplify(left + 1, lo, hi);
        }
        TmpNode::Split {
            feature: f as u16,
            cut,
            left: Box::new(self.simplify(left, lo, hi)),
            right: Box::new(self.simplify(left + 1, lo, hi)),
        }
    }

    /// Number of features the source model was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Width of an encoded row: `num_features`, but at least 1 so the
    /// synthetic nodes of constant trees always have a bin to read.
    pub fn encoded_width(&self) -> usize {
        self.num_features.max(1)
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total packed nodes (includes one synthetic node per constant tree).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident bytes of the compiled model, for
    /// metadata-footprint accounting.
    pub fn approximate_bytes(&self) -> usize {
        let mask_bytes = self.masks.as_ref().map_or(0, |m| {
            m.cuts.len() * 12
                + m.masks32.len() * 4
                + (m.feat_off.len() + m.used.len()) * 4
                + m.leaf_value.len() * 8
                + m.leaf_base.len() * 4
        });
        self.nodes.len() * 8
            + self.value.len() * 8
            + self.leaf.len()
            + (self.roots.len() + self.depth.len()) * 4
            + self.grid.iter().map(|g| g.len() * 4).sum::<usize>()
            + mask_bytes
    }

    /// Encoded bin of a present, non-NaN value: the number of grid values
    /// `< v`.
    #[inline]
    fn encode_value(&self, f: usize, v: f32) -> u16 {
        self.grid[f].partition_point(|&b| b < v) as u16
    }

    /// Encodes one raw row into u16 bins, reusing `out` as scratch (the
    /// hot-path encoder: no allocation after the first call). Short rows
    /// and NaN encode as [`MISSING_BIN`]; `±inf` encode past the grid ends,
    /// matching the flat walk's compare semantics.
    pub fn encode_row_into(&self, row: &[f32], out: &mut Vec<u16>) {
        out.clear();
        out.extend((0..self.num_features).map(|f| match row.get(f) {
            Some(&v) if !v.is_nan() => self.encode_value(f, v),
            _ => MISSING_BIN,
        }));
        if self.num_features == 0 {
            out.push(MISSING_BIN);
        }
    }

    /// Encodes a batch of rows into one packed row-major bin buffer with
    /// stride [`QuantizedModel::encoded_width`] — done once, outside the
    /// serving loop, so the hot path only ever touches u16 bins.
    pub fn encode_rows(&self, rows: &[Vec<f32>]) -> Vec<u16> {
        let mut packed = Vec::with_capacity(rows.len() * self.encoded_width());
        let mut scratch = Vec::new();
        for row in rows {
            self.encode_row_into(row, &mut scratch);
            packed.extend_from_slice(&scratch);
        }
        packed
    }

    /// Walks one tree for one encoded row (fixed-depth, self-looping
    /// leaves).
    #[inline]
    fn walk(&self, tree: usize, bins: &[u16]) -> f64 {
        let mut at = self.roots[tree] as usize;
        for _ in 0..self.depth[tree] {
            let node = self.nodes[at];
            let f = (node >> 48) as usize;
            let cut = (node >> 32) as u16;
            at = ((node as u32) + u32::from(bins[f] >= cut)) as usize;
        }
        self.value[at]
    }

    /// Raw additive score for one encoded row; bit-equal to
    /// [`FlatModel::predict_raw`] on the raw row.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != self.encoded_width()`.
    pub fn predict_raw_binned(&self, bins: &[u16]) -> f64 {
        assert_eq!(
            bins.len(),
            self.encoded_width(),
            "encoded row width must match encoded_width()"
        );
        let mut acc = 0.0f64;
        for t in 0..self.roots.len() {
            acc += self.walk(t, bins);
        }
        self.init_score + acc
    }

    /// Probability of the positive class for one encoded row; bit-equal to
    /// [`FlatModel::predict_proba`] on the raw row.
    pub fn predict_proba_binned(&self, bins: &[u16]) -> f64 {
        sigmoid(self.predict_raw_binned(bins))
    }

    /// Batch-kernel shape diagnostics: `(trees, mask entries, max depth)`.
    /// Mask entries is 0 when the walk fallback serves the ensemble.
    #[doc(hidden)]
    pub fn kernel_stats(&self) -> (usize, usize, usize) {
        (
            self.roots.len(),
            self.masks.as_ref().map_or(0, |m| m.cuts.len()),
            self.depth.iter().copied().max().unwrap_or(0) as usize,
        )
    }

    /// The batch kernel: accumulates per-row tree sums (no `init_score`)
    /// into `out` through the mask tables when available (module docs),
    /// falling back to the fixed-depth interleaved walk with [`BLOCK`] row
    /// cursors for ensembles the tables cannot represent. Both kernels
    /// accumulate per row in tree order, so the final scores keep the flat
    /// walk's f64 association and the two kernels are bit-equal.
    fn accumulate_binned(&self, rows: &[u16], out: &mut [f64]) {
        let stride = self.encoded_width();
        assert_eq!(
            rows.len(),
            out.len() * stride,
            "rows must be row-major with stride encoded_width()"
        );
        if let Some(tables) = &self.masks {
            self.accumulate_masked(tables, rows, out);
            return;
        }
        out.fill(0.0);
        let mut cursors = [0u32; BLOCK];
        let mut done = 0usize;
        while done < out.len() {
            let n = (out.len() - done).min(BLOCK);
            let block = &rows[done * stride..(done + n) * stride];
            let out_block = &mut out[done..done + n];
            for (&root, &depth) in self.roots.iter().zip(self.depth.iter()) {
                cursors[..n].fill(root);
                for _ in 0..depth {
                    for (j, cur) in cursors[..n].iter_mut().enumerate() {
                        let node = self.nodes[*cur as usize];
                        let f = (node >> 48) as usize;
                        let cut = (node >> 32) as u16;
                        let bin = block[j * stride + f];
                        *cur = (node as u32) + u32::from(bin >= cut);
                    }
                }
                for (acc, &cur) in out_block.iter_mut().zip(cursors[..n].iter()) {
                    *acc += self.value[cur as usize];
                }
            }
            done += n;
        }
    }

    /// The mask kernel: for each row, every tree's leaf-candidate
    /// bitvector starts all-ones; one pass over the feature-grouped entry
    /// list ANDs each tree's candidates with either the entry's mask
    /// (`bin >= cut`: the row bypasses the left subtree) or all-ones. The
    /// row's bin is hoisted into a register per feature; `bin - cut` is
    /// negative exactly when the row stays left, and its sign, spread
    /// across the word, ORs the mask into a no-op — a pure arithmetic
    /// select with nothing data-dependent for branch prediction to lose
    /// on. The exit leaf of tree `t` is the lowest surviving bit.
    /// [`MISSING_BIN`] exceeds every cut, so missing features apply every
    /// mask on their feature — exactly the walk's "missing goes right".
    fn accumulate_masked(&self, tables: &MaskTables, rows: &[u16], out: &mut [f64]) {
        if tables.masks32.is_empty() {
            self.accumulate_masked_scalar(tables, rows, out);
        } else {
            self.accumulate_masked_block(tables, rows, out);
        }
    }

    /// The 8-lane block kernel: eight rows' bins are transposed to column
    /// major, every tree's eight u32 candidate words live in one 32-byte
    /// slab, and each entry ANDs all eight lanes with a branchless
    /// arithmetic select (`bin - cut` is negative exactly when the row
    /// stays left; the sign spread across the word ORs the mask into a
    /// no-op). Fixed-trip 8-lane inner loops with no data-dependent
    /// control flow — the autovectorizer's favorite food — and the entry
    /// stream is read once per block, not once per row. A short tail
    /// block pads with its last row; the padded lanes are computed and
    /// discarded.
    fn accumulate_masked_block(&self, tables: &MaskTables, rows: &[u16], out: &mut [f64]) {
        const LANES: usize = 8;
        let stride = self.encoded_width();
        let ntrees = self.roots.len();
        let mut cand: Vec<[u32; LANES]> = vec![[u32::MAX; LANES]; ntrees];
        let mut cols: Vec<[u16; LANES]> = vec![[0; LANES]; stride];
        let mut done = 0usize;
        while done < out.len() {
            let live = (out.len() - done).min(LANES);
            for &f in &tables.used {
                let f = f as usize;
                for (l, slot) in cols[f].iter_mut().enumerate() {
                    let r = done + l.min(live - 1);
                    *slot = rows[r * stride + f];
                }
            }
            cand.fill([u32::MAX; LANES]);
            for &f in &tables.used {
                let f = f as usize;
                let col = &cols[f];
                let lo = tables.feat_off[f] as usize;
                let hi = tables.feat_off[f + 1] as usize;
                for e in lo..hi {
                    let cut = i32::from(tables.cuts[e]);
                    let mask = tables.masks32[e];
                    let slab = &mut cand[usize::from(tables.trees[e])];
                    for (c, &bin) in slab.iter_mut().zip(col) {
                        let below = ((i32::from(bin) - cut) >> 31) as u32;
                        *c &= mask | below;
                    }
                }
            }
            // Lane-interleaved gather: eight independent f64 add chains
            // advance together (tree-major), so the serial fadd latency of
            // one lane overlaps the other seven. Each lane still sums its
            // leaves in tree order — the same association as the walk.
            let mut sums = [0.0f64; LANES];
            for (t, slab) in cand.iter().enumerate() {
                let base = tables.leaf_base[t];
                for (s, &v) in sums.iter_mut().zip(slab) {
                    *s += tables.leaf_value[(base + v.trailing_zeros()) as usize];
                }
            }
            out[done..done + live].copy_from_slice(&sums[..live]);
            done += live;
        }
    }

    /// Scalar u64 variant of the mask kernel for ensembles with a tree
    /// wider than 32 leaves: same entry stream, same arithmetic select,
    /// one row at a time.
    fn accumulate_masked_scalar(&self, tables: &MaskTables, rows: &[u16], out: &mut [f64]) {
        let stride = self.encoded_width();
        let mut candidates = vec![u64::MAX; self.roots.len()];
        for (i, acc) in out.iter_mut().enumerate() {
            let row = &rows[i * stride..(i + 1) * stride];
            candidates.fill(u64::MAX);
            for (f, &bin) in row.iter().enumerate() {
                let lo = tables.feat_off[f] as usize;
                let hi = tables.feat_off[f + 1] as usize;
                let b = i64::from(bin);
                for e in lo..hi {
                    let below = (b - i64::from(tables.cuts[e])) >> 63;
                    candidates[usize::from(tables.trees[e])] &= tables.masks[e] | below as u64;
                }
            }
            let mut sum = 0.0f64;
            for (t, &v) in candidates.iter().enumerate() {
                let leaf = tables.leaf_base[t] + v.trailing_zeros();
                sum += tables.leaf_value[leaf as usize];
            }
            *acc = sum;
        }
    }

    /// Raw additive scores for a packed batch of encoded rows (stride
    /// [`QuantizedModel::encoded_width`]); each output is bit-equal to
    /// [`QuantizedModel::predict_raw_binned`] on the same row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len() * self.encoded_width()`.
    pub fn predict_raw_binned_batch(&self, rows: &[u16], out: &mut [f64]) {
        self.accumulate_binned(rows, out);
        for acc in out.iter_mut() {
            *acc += self.init_score;
        }
    }

    /// Probabilities for a packed batch of encoded rows; bit-equal to
    /// [`FlatModel::predict_proba_batch`] on the raw rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len() * self.encoded_width()`.
    pub fn predict_proba_binned_batch(&self, rows: &[u16], out: &mut [f64]) {
        self.accumulate_binned(rows, out);
        for acc in out.iter_mut() {
            *acc = sigmoid(self.init_score + *acc);
        }
    }
}

impl Model {
    /// Compiles the ensemble for quantized serving: shorthand for
    /// `QuantizedModel::compile(&self.flatten())`.
    pub fn quantize(&self) -> QuantizedModel {
        QuantizedModel::compile(&self.flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, Dataset, GbdtParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(seed: u64, n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| {
                let s: f32 = r
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v * (i as f32 - 1.0))
                    .sum();
                (s > 0.0) as u8 as f32
            })
            .collect();
        (rows, labels)
    }

    #[test]
    fn compile_is_bit_equal_to_the_flat_walk() {
        for seed in 0..6u64 {
            let d = 2 + (seed as usize % 4);
            let (rows, labels) = random_dataset(seed, 400, d);
            let data = Dataset::from_rows(rows.clone(), labels).unwrap();
            let mut params = GbdtParams::lfo_paper();
            params.seed = seed;
            let model = train(&data, &params);
            let flat = model.flatten();
            let quant = QuantizedModel::compile(&flat);
            let mut bins = Vec::new();
            for row in rows.iter().take(120) {
                quant.encode_row_into(row, &mut bins);
                assert_eq!(
                    quant.predict_proba_binned(&bins).to_bits(),
                    flat.predict_proba(row).to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    quant.predict_raw_binned(&bins).to_bits(),
                    flat.predict_raw(row).to_bits(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn batch_kernel_matches_single_row_bit_for_bit() {
        let (rows, labels) = random_dataset(42, 700, 3);
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        let packed = quant.encode_rows(&rows);
        let mut out = vec![0.0f64; rows.len()];
        quant.predict_proba_binned_batch(&packed, &mut out);
        let mut bins = Vec::new();
        for (row, &p) in rows.iter().zip(&out) {
            quant.encode_row_into(row, &mut bins);
            assert_eq!(p.to_bits(), quant.predict_proba_binned(&bins).to_bits());
        }
        // And bit-equal to the flat batch.
        let stride = model.num_features();
        let packed_raw: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let mut flat_out = vec![0.0f64; rows.len()];
        model
            .flatten()
            .predict_proba_batch(&packed_raw, &mut flat_out);
        for (a, b) in out.iter().zip(&flat_out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(packed_raw.len(), out.len() * stride);
    }

    #[test]
    fn short_rows_and_inf_padding_take_the_right_branch() {
        let (rows, labels) = random_dataset(7, 300, 4);
        let data = Dataset::from_rows(rows, labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let flat = model.flatten();
        let quant = model.quantize();
        let mut bins = Vec::new();
        for short in [&[][..], &[0.5][..], &[0.5, -1.0][..]] {
            quant.encode_row_into(short, &mut bins);
            assert_eq!(
                quant.predict_proba_binned(&bins).to_bits(),
                flat.predict_proba(short).to_bits()
            );
        }
        let padded = [0.5, f32::INFINITY, f32::INFINITY, f32::INFINITY];
        let mut padded_bins = Vec::new();
        quant.encode_row_into(&padded, &mut padded_bins);
        quant.encode_row_into(&[0.5], &mut bins);
        assert_eq!(
            quant.predict_proba_binned(&padded_bins).to_bits(),
            quant.predict_proba_binned(&bins).to_bits()
        );
    }

    #[test]
    fn constant_model_compiles_and_scores() {
        let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32]).collect();
        let data = Dataset::from_rows(rows, vec![1.0; 50]).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        let mut bins = Vec::new();
        quant.encode_row_into(&[3.0], &mut bins);
        assert_eq!(
            quant.predict_proba_binned(&bins).to_bits(),
            model.predict_proba(&[3.0]).to_bits()
        );
        let packed = quant.encode_rows(&[vec![3.0], vec![11.0]]);
        let mut out = vec![0.0; 2];
        quant.predict_proba_binned_batch(&packed, &mut out);
        assert_eq!(out[0].to_bits(), model.predict_proba(&[3.0]).to_bits());
        assert_eq!(out[1].to_bits(), model.predict_proba(&[11.0]).to_bits());
    }

    #[test]
    fn oversized_trees_use_the_walk_fallback_and_stay_bit_equal() {
        let (rows, labels) = random_dataset(31, 4_000, 3);
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let mut params = GbdtParams::lfo_paper();
        params.num_iterations = 4;
        params.num_leaves = 96;
        params.min_data_in_leaf = 1;
        let model = train(&data, &params);
        let quant = model.quantize();
        // Leaf counts per tree pick the kernel: > 64 leaves in any tree
        // drops the mask tables and the batch path walks instead.
        let max_leaves = (0..quant.num_trees())
            .map(|t| {
                let lo = quant.roots[t] as usize;
                let hi = quant
                    .roots
                    .get(t + 1)
                    .map(|&r| r as usize)
                    .unwrap_or(quant.nodes.len());
                quant.leaf[lo..hi].iter().filter(|&&l| l).count()
            })
            .max()
            .unwrap();
        assert!(
            max_leaves > 64,
            "fixture must exceed the mask-kernel leaf budget (got {max_leaves})"
        );
        assert!(
            quant.masks.is_none(),
            "oversized trees must drop the tables"
        );
        // Whichever kernel runs, batch scores stay bit-equal to the walk.
        let flat = model.flatten();
        let sample = &rows[..600];
        let packed = quant.encode_rows(sample);
        let mut out = vec![0.0f64; sample.len()];
        quant.predict_proba_binned_batch(&packed, &mut out);
        for (row, &p) in sample.iter().zip(&out) {
            assert_eq!(p.to_bits(), flat.predict_proba(row).to_bits());
        }
    }

    #[test]
    fn mask_kernel_is_active_for_paper_sized_trees() {
        let (rows, labels) = random_dataset(17, 500, 3);
        let data = Dataset::from_rows(rows, labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        assert!(
            quant.masks.is_some(),
            "31-leaf trees must use the mask kernel"
        );
        // Pruning rebuilds the tables for the simplified trees.
        let pruned = quant.prune(&[Predicate::range(0, -1.0, 1.0)]);
        assert!(pruned.masks.is_some());
    }

    #[test]
    #[ignore = "manual kernel profiling aid"]
    fn kernel_profile() {
        use std::time::Instant;
        let (rows, labels) = random_dataset(3, 6000, 53);
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        let (trees, entries, depth) = quant.kernel_stats();
        println!("trees {trees}  entries {entries}  depth {depth}");
        let mut packed = Vec::new();
        let mut bins = Vec::new();
        for row in &rows {
            quant.encode_row_into(row, &mut bins);
            packed.extend_from_slice(&bins);
        }
        let n = rows.len();

        let reps = 100;
        let mut out = vec![0.0f64; n];
        let t0 = Instant::now();
        for _ in 0..reps {
            quant.predict_raw_binned_batch(&packed, &mut out);
        }
        println!(
            "full kernel: {:.1} ns/row (sink {})",
            t0.elapsed().as_secs_f64() / (reps * n) as f64 * 1e9,
            out[0]
        );
    }

    #[test]
    fn prune_preserves_scores_on_predicate_satisfying_rows() {
        let (rows, labels) = random_dataset(9, 500, 4);
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        // Invariant: feature 1 always within [-1, 1].
        let pruned = quant.prune(&[Predicate::range(1, -1.0, 1.0)]);
        assert!(
            pruned.num_nodes() < quant.num_nodes(),
            "a binding range predicate must drop branches ({} vs {})",
            pruned.num_nodes(),
            quant.num_nodes()
        );
        let mut bins = Vec::new();
        for row in rows.iter().filter(|r| (-1.0..=1.0).contains(&r[1])) {
            quant.encode_row_into(row, &mut bins);
            assert_eq!(
                pruned.predict_proba_binned(&bins).to_bits(),
                quant.predict_proba_binned(&bins).to_bits()
            );
        }
    }

    #[test]
    fn prune_with_no_predicates_is_score_preserving() {
        let (rows, labels) = random_dataset(13, 400, 3);
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let params = GbdtParams::lfo_paper();
        let model = train(&data, &params);
        let quant = model.quantize();
        let pruned = quant.prune(&[]);
        let mut bins = Vec::new();
        for row in rows.iter().take(100) {
            quant.encode_row_into(row, &mut bins);
            assert_eq!(
                pruned.predict_proba_binned(&bins).to_bits(),
                quant.predict_proba_binned(&bins).to_bits()
            );
        }
    }

    #[test]
    fn rows_on_and_between_thresholds_route_like_the_flat_walk() {
        // Every split threshold is on the grid, so rows sitting exactly on
        // a threshold, between two, or past either end take the flat
        // walk's branch at every split.
        let (rows, labels) = random_dataset(21, 500, 3);
        let data = Dataset::from_rows(rows, labels).unwrap();
        let model = train(&data, &GbdtParams::lfo_paper());
        let flat = model.flatten();
        let quant = QuantizedModel::compile(&flat);
        let mut probes = vec![f32::NEG_INFINITY, f32::INFINITY, f32::NAN];
        for g in &quant.grid {
            probes.extend(g.iter().copied());
            probes.extend(g.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0));
        }
        let mut bins = Vec::new();
        for &a in &probes {
            for &b in probes.iter().step_by(7) {
                let row = [a, b, a];
                quant.encode_row_into(&row, &mut bins);
                assert_eq!(
                    quant.predict_proba_binned(&bins).to_bits(),
                    flat.predict_proba(&row).to_bits(),
                    "row {row:?}"
                );
            }
        }
    }
}
