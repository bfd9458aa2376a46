//! Neighbor search: which atom pairs are within the interaction cutoff.
//!
//! Two implementations are provided: an O(N²) brute-force reference and an
//! O(N) cell-list search (the production path). Property tests assert they
//! agree on random structures, both molecular and periodic.

use std::sync::Mutex;

use matgnn_tensor::pool;

use crate::vec3;
use crate::AtomicStructure;

/// A directed edge list of atom pairs within a cutoff radius.
///
/// Edges are stored in both directions (`i→j` and `j→i`) because message
/// passing is directional; self-edges are excluded. Edges are sorted by
/// `(src, dst)` so construction is deterministic.
///
/// # Examples
///
/// ```
/// use matgnn_graph::{AtomicStructure, Element, NeighborList};
///
/// let s = AtomicStructure::new(
///     vec![Element::H, Element::H, Element::H],
///     vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0]],
/// )?;
/// let nl = NeighborList::build(&s, 2.0);
/// // Atoms 0 and 1 are bonded; atom 2 is isolated.
/// assert_eq!(nl.edges(), &[(0, 1), (1, 0)]);
/// # Ok::<(), matgnn_graph::StructureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborList {
    edges: Vec<(usize, usize)>,
}

impl NeighborList {
    /// Builds the neighbor list with a cell-list (linked-cell) search.
    ///
    /// Falls back to the brute-force search when the cell decomposition
    /// would be degenerate (fewer than 3 cells along a periodic axis, or
    /// very small systems where binning cannot win).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is not finite and positive, or if the structure
    /// is periodic and `cutoff` exceeds half the shortest box length (the
    /// minimum-image convention would silently miss images otherwise).
    pub fn build(structure: &AtomicStructure, cutoff: f64) -> Self {
        validate_cutoff(structure, cutoff);
        let n = structure.len();
        if n < 32 {
            return Self::brute_force_impl(structure, cutoff);
        }
        match structure.cell() {
            Some(cell) => {
                let cells_per_dim: [usize; 3] =
                    [0, 1, 2].map(|k| (cell[k] / cutoff).floor() as usize);
                if cells_per_dim.iter().any(|&c| c < 3) {
                    Self::brute_force_impl(structure, cutoff)
                } else {
                    Self::build_cell_list_periodic(structure, cutoff, cell, cells_per_dim)
                }
            }
            None => Self::build_cell_list_open(structure, cutoff),
        }
    }

    /// Builds the neighbor list by checking all O(N²) pairs — the reference
    /// implementation the cell list is tested against.
    ///
    /// # Panics
    ///
    /// Same conditions as [`NeighborList::build`].
    pub fn build_brute_force(structure: &AtomicStructure, cutoff: f64) -> Self {
        validate_cutoff(structure, cutoff);
        Self::brute_force_impl(structure, cutoff)
    }

    /// Brute-force body, shared with the fallback in [`NeighborList::build`]
    /// so the cutoff is only validated once per public entry point.
    fn brute_force_impl(structure: &AtomicStructure, cutoff: f64) -> Self {
        let n = structure.len();
        let c2 = cutoff * cutoff;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = structure.displacement(i, j);
                if vec3::norm_sq(d) <= c2 {
                    edges.push((i, j));
                    edges.push((j, i));
                }
            }
        }
        edges.sort_unstable();
        NeighborList { edges }
    }

    /// Runs `scan(i, out)` for every atom index, in parallel over the worker
    /// pool, and returns the per-atom edge runs concatenated in atom order.
    ///
    /// The concatenation makes the output independent of how the pool split
    /// the index range, so cell-list builds stay bitwise identical to their
    /// serial form for any `MATGNN_THREADS`.
    fn scan_atoms(
        n: usize,
        per_atom_cap: usize,
        scan: impl Fn(usize, &mut Vec<(usize, usize)>) + Sync,
    ) -> Vec<(usize, usize)> {
        type EdgeRun = (usize, Vec<(usize, usize)>);
        let runs: Mutex<Vec<EdgeRun>> = Mutex::new(Vec::new());
        // Granule 1: atoms are the natural work unit and any granule must
        // divide the atom count exactly.
        pool::parallel_ranges(n, 1, |r| {
            let mut local = Vec::with_capacity(per_atom_cap * r.len());
            for i in r.clone() {
                scan(i, &mut local);
            }
            runs.lock().unwrap().push((r.start, local));
        });
        let mut runs = runs.into_inner().unwrap();
        runs.sort_unstable_by_key(|&(start, _)| start);
        let mut edges = Vec::with_capacity(per_atom_cap * n);
        for (_, mut run) in runs {
            edges.append(&mut run);
        }
        edges
    }

    /// Expected directed neighbors per atom for a uniform density, padded by
    /// a 1.5× safety factor so the edge `Vec` rarely regrows.
    fn neighbors_per_atom(n: usize, volume: f64, cutoff: f64) -> usize {
        let density = n as f64 / volume.max(f64::MIN_POSITIVE);
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * cutoff.powi(3);
        ((density * sphere * 1.5) as usize).max(4)
    }

    fn build_cell_list_open(structure: &AtomicStructure, cutoff: f64) -> Self {
        let pos = structure.positions();
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in pos {
            for k in 0..3 {
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        let mut dims = [0usize; 3];
        for k in 0..3 {
            dims[k] = (((hi[k] - lo[k]) / cutoff).floor() as usize + 1).max(1);
        }
        let cell_of = |p: &vec3::Vec3| -> [usize; 3] {
            let mut c = [0usize; 3];
            for k in 0..3 {
                c[k] = (((p[k] - lo[k]) / cutoff) as usize).min(dims[k] - 1);
            }
            c
        };
        let flat = |c: [usize; 3]| c[0] * dims[1] * dims[2] + c[1] * dims[2] + c[2];
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        for (i, p) in pos.iter().enumerate() {
            bins[flat(cell_of(p))].push(i);
        }
        let c2 = cutoff * cutoff;
        let volume: f64 = (0..3).map(|k| (hi[k] - lo[k]).max(cutoff)).product();
        let per_atom = Self::neighbors_per_atom(pos.len(), volume, cutoff);
        let mut edges = Self::scan_atoms(pos.len(), per_atom, |i, out| {
            let p = &pos[i];
            let c = cell_of(p);
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let nx = c[0] as i64 + dx;
                        let ny = c[1] as i64 + dy;
                        let nz = c[2] as i64 + dz;
                        if nx < 0
                            || ny < 0
                            || nz < 0
                            || nx >= dims[0] as i64
                            || ny >= dims[1] as i64
                            || nz >= dims[2] as i64
                        {
                            continue;
                        }
                        for &j in &bins[flat([nx as usize, ny as usize, nz as usize])] {
                            if j != i && vec3::norm_sq(vec3::sub(pos[j], *p)) <= c2 {
                                out.push((i, j));
                            }
                        }
                    }
                }
            }
        });
        edges.sort_unstable();
        NeighborList { edges }
    }

    fn build_cell_list_periodic(
        structure: &AtomicStructure,
        cutoff: f64,
        cell: vec3::Vec3,
        dims: [usize; 3],
    ) -> Self {
        let pos = structure.positions();
        let wrap = |x: f64, l: f64| -> f64 {
            let w = x % l;
            if w < 0.0 {
                w + l
            } else {
                w
            }
        };
        let cell_of = |p: &vec3::Vec3| -> [usize; 3] {
            let mut c = [0usize; 3];
            for k in 0..3 {
                let w = wrap(p[k], cell[k]);
                c[k] = ((w / cell[k] * dims[k] as f64) as usize).min(dims[k] - 1);
            }
            c
        };
        let flat = |c: [usize; 3]| c[0] * dims[1] * dims[2] + c[1] * dims[2] + c[2];
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        for (i, p) in pos.iter().enumerate() {
            bins[flat(cell_of(p))].push(i);
        }
        let c2 = cutoff * cutoff;
        let volume = cell[0] * cell[1] * cell[2];
        let per_atom = Self::neighbors_per_atom(pos.len(), volume, cutoff);
        let mut edges = Self::scan_atoms(pos.len(), per_atom, |i, out| {
            let p = &pos[i];
            let c = cell_of(p);
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let nc = [
                            ((c[0] as i64 + dx).rem_euclid(dims[0] as i64)) as usize,
                            ((c[1] as i64 + dy).rem_euclid(dims[1] as i64)) as usize,
                            ((c[2] as i64 + dz).rem_euclid(dims[2] as i64)) as usize,
                        ];
                        for &j in &bins[flat(nc)] {
                            if j == i {
                                continue;
                            }
                            let mut d = vec3::sub(pos[j], *p);
                            for k in 0..3 {
                                d[k] -= (d[k] / cell[k]).round() * cell[k];
                            }
                            if vec3::norm_sq(d) <= c2 {
                                out.push((i, j));
                            }
                        }
                    }
                }
            }
        });
        edges.sort_unstable();
        edges.dedup();
        NeighborList { edges }
    }

    /// The directed `(src, dst)` edges, sorted.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of directed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Splits the edges into parallel `src` / `dst` index arrays.
    pub fn to_src_dst(&self) -> (Vec<usize>, Vec<usize>) {
        let mut src = Vec::with_capacity(self.edges.len());
        let mut dst = Vec::with_capacity(self.edges.len());
        for &(i, j) in &self.edges {
            src.push(i);
            dst.push(j);
        }
        (src, dst)
    }
}

fn validate_cutoff(structure: &AtomicStructure, cutoff: f64) {
    assert!(
        cutoff.is_finite() && cutoff > 0.0,
        "cutoff must be positive, got {cutoff}"
    );
    if let Some(cell) = structure.cell() {
        let min_l = cell.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            cutoff <= min_l / 2.0,
            "cutoff {cutoff} exceeds half the shortest box length {min_l}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;
    use matgnn_tensor::rng::Rng;
    use matgnn_tensor::Runtime;

    fn random_molecule(n: usize, extent: f64, seed: u64) -> AtomicStructure {
        let mut rng = Rng::seed_from_u64(seed);
        let species = (0..n).map(|_| Element::C).collect();
        let positions = (0..n)
            .map(|_| {
                [
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                ]
            })
            .collect();
        AtomicStructure::new(species, positions).unwrap()
    }

    fn random_periodic(n: usize, box_l: f64, seed: u64) -> AtomicStructure {
        let mut rng = Rng::seed_from_u64(seed);
        let species = (0..n).map(|_| Element::Cu).collect();
        let positions = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                ]
            })
            .collect();
        AtomicStructure::new_periodic(species, positions, [box_l; 3]).unwrap()
    }

    #[test]
    fn pair_within_cutoff() {
        let s = AtomicStructure::new(
            vec![Element::H, Element::H],
            vec![[0.0; 3], [1.0, 0.0, 0.0]],
        )
        .unwrap();
        let nl = NeighborList::build(&s, 1.5);
        assert_eq!(nl.edges(), &[(0, 1), (1, 0)]);
        let nl = NeighborList::build(&s, 0.5);
        assert!(nl.is_empty());
    }

    #[test]
    fn no_self_edges() {
        let s = random_molecule(60, 4.0, 1);
        let nl = NeighborList::build(&s, 2.0);
        assert!(nl.edges().iter().all(|&(i, j)| i != j));
    }

    #[test]
    fn edges_are_symmetric() {
        let s = random_molecule(60, 4.0, 2);
        let nl = NeighborList::build(&s, 2.0);
        for &(i, j) in nl.edges() {
            assert!(
                nl.edges().binary_search(&(j, i)).is_ok(),
                "missing reverse of ({i},{j})"
            );
        }
    }

    #[test]
    fn cell_list_matches_brute_force_open() {
        for seed in 0..5 {
            let s = random_molecule(120, 6.0, seed);
            let a = NeighborList::build(&s, 1.8);
            let b = NeighborList::build_brute_force(&s, 1.8);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn cell_list_matches_brute_force_periodic() {
        for seed in 0..5 {
            let s = random_periodic(150, 12.0, seed);
            let a = NeighborList::build(&s, 3.0);
            let b = NeighborList::build_brute_force(&s, 3.0);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn cell_list_matches_brute_force_under_pool_of_4() {
        // The parallel scan must reproduce the serial build bit for bit:
        // per-atom runs are concatenated in atom order before the sort.
        let build_on = |threads, s: &AtomicStructure, cutoff| {
            let _rt = Runtime::current().with_threads(threads).enter();
            NeighborList::build(s, cutoff)
        };
        for seed in 0..5 {
            let open = random_molecule(200, 7.0, seed);
            let a = build_on(4, &open, 1.8);
            let serial = build_on(1, &open, 1.8);
            assert_eq!(a, serial, "open seed {seed}: parallel != serial");
            assert_eq!(
                a,
                NeighborList::build_brute_force(&open, 1.8),
                "open seed {seed}"
            );

            let per = random_periodic(220, 12.0, seed);
            let a = build_on(4, &per, 3.0);
            let serial = build_on(1, &per, 3.0);
            assert_eq!(a, serial, "periodic seed {seed}: parallel != serial");
            assert_eq!(
                a,
                NeighborList::build_brute_force(&per, 3.0),
                "periodic seed {seed}"
            );
        }
    }

    #[test]
    fn periodic_wraparound_edge_found() {
        let s = AtomicStructure::new_periodic(
            vec![Element::Cu, Element::Cu],
            vec![[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]],
            [10.0; 3],
        )
        .unwrap();
        let nl = NeighborList::build(&s, 1.0);
        assert_eq!(nl.edges(), &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_beyond_half_box_panics() {
        let s = random_periodic(10, 6.0, 3);
        let _ = NeighborList::build(&s, 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_cutoff_panics() {
        let s = random_molecule(4, 2.0, 4);
        let _ = NeighborList::build(&s, 0.0);
    }

    #[test]
    fn src_dst_split() {
        let s = random_molecule(40, 3.0, 5);
        let nl = NeighborList::build(&s, 2.0);
        let (src, dst) = nl.to_src_dst();
        assert_eq!(src.len(), nl.len());
        for (k, &(i, j)) in nl.edges().iter().enumerate() {
            assert_eq!((src[k], dst[k]), (i, j));
        }
    }
}
