//! Breadth-first search and connectivity.
//!
//! Generated benchmark graphs are usually consumed by Graph500-style BFS
//! kernels, and connectivity is one of the first sanity checks a designer
//! runs on a new generator.  This module provides a level-synchronous BFS
//! phrased GraphBLAS-style (frontier SpMV over the boolean semiring), a
//! conventional queue-based BFS as a cross-check, and connected components —
//! all operating on the CSR pattern.

use rayon::prelude::*;

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::semiring::Scalar;

/// Result of a single-source BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// The source vertex.
    pub source: usize,
    /// `level[v]` is the hop distance from the source, or `None` if `v` is
    /// unreachable.
    pub levels: Vec<Option<u32>>,
    /// `parent[v]` is the BFS-tree parent, `None` for the source itself and
    /// for unreachable vertices.
    pub parents: Vec<Option<usize>>,
}

impl BfsTree {
    /// Number of vertices reachable from the source (including the source).
    pub fn reached(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// The largest BFS level (graph eccentricity of the source within its
    /// component); `0` when only the source is reachable.
    pub fn max_level(&self) -> u32 {
        self.levels.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Validate the tree against the adjacency matrix it was computed from,
    /// in the spirit of the Graph500 validation step:
    ///
    /// * the source has level 0 and no parent;
    /// * every reached non-source vertex has a parent one level closer;
    /// * every tree edge exists in the graph;
    /// * level differences across every graph edge are at most one.
    pub fn validate<T: Scalar>(&self, graph: &CsrMatrix<T>) -> Result<(), String> {
        if self.levels.len() != graph.nrows() {
            return Err("level array length does not match the vertex count".into());
        }
        match self.levels[self.source] {
            Some(0) => {}
            other => return Err(format!("source level must be 0, found {other:?}")),
        }
        if self.parents[self.source].is_some() {
            return Err("source must not have a parent".into());
        }
        for v in 0..graph.nrows() {
            match (self.levels[v], self.parents[v]) {
                (None, None) => {}
                (None, Some(_)) => return Err(format!("unreachable vertex {v} has a parent")),
                (Some(0), _) if v == self.source => {}
                (Some(0), _) => return Err(format!("non-source vertex {v} has level 0")),
                (Some(level), Some(parent)) => {
                    let parent_level = self.levels[parent]
                        .ok_or_else(|| format!("parent {parent} of {v} is unreachable"))?;
                    if parent_level + 1 != level {
                        return Err(format!(
                            "vertex {v} at level {level} has parent {parent} at level {parent_level}"
                        ));
                    }
                    let (cols, _) = graph.row(parent);
                    if cols.binary_search(&v).is_err() {
                        return Err(format!("tree edge {parent} -> {v} is not a graph edge"));
                    }
                }
                (Some(level), None) => {
                    return Err(format!("reached vertex {v} at level {level} has no parent"))
                }
            }
        }
        // Level difference across every edge is at most 1.
        for u in 0..graph.nrows() {
            let Some(lu) = self.levels[u] else { continue };
            let (cols, _) = graph.row(u);
            for &v in cols {
                match self.levels[v] {
                    Some(lv) => {
                        if lu.abs_diff(lv) > 1 {
                            return Err(format!("edge ({u}, {v}) spans levels {lu} and {lv}"));
                        }
                    }
                    None => return Err(format!("edge ({u}, {v}) reaches an unvisited vertex")),
                }
            }
        }
        Ok(())
    }
}

/// Level-synchronous BFS phrased as repeated frontier expansion (the
/// GraphBLAS boolean-semiring SpMV pattern), parallelised over the frontier.
pub fn bfs<T: Scalar>(graph: &CsrMatrix<T>, source: usize) -> Result<BfsTree, SparseError> {
    if graph.nrows() != graph.ncols() {
        return Err(SparseError::DimensionMismatch {
            op: "bfs",
            left: (graph.nrows() as u64, graph.ncols() as u64),
            right: (graph.ncols() as u64, graph.nrows() as u64),
        });
    }
    if source >= graph.nrows() {
        return Err(SparseError::IndexOutOfBounds {
            row: source as u64,
            col: 0,
            nrows: graph.nrows() as u64,
            ncols: graph.ncols() as u64,
        });
    }
    let n = graph.nrows();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<usize>> = vec![None; n];
    levels[source] = Some(0);
    let mut frontier = vec![source];
    let mut level = 0u32;

    while !frontier.is_empty() {
        level += 1;
        // Expand the frontier in parallel; collect candidate (child, parent)
        // pairs, then commit them sequentially (first writer wins, which is
        // any valid BFS parent).
        let candidates: Vec<(usize, usize)> = frontier
            .par_iter()
            .flat_map_iter(|&u| {
                let (cols, _) = graph.row(u);
                cols.iter().map(move |&v| (v, u)).collect::<Vec<_>>()
            })
            .collect();
        let mut next = Vec::new();
        for (v, parent) in candidates {
            if levels[v].is_none() {
                levels[v] = Some(level);
                parents[v] = Some(parent);
                next.push(v);
            }
        }
        frontier = next;
    }
    Ok(BfsTree {
        source,
        levels,
        parents,
    })
}

/// Simple sequential queue-based BFS used as an independent cross-check of
/// [`bfs`] in tests.
pub fn bfs_reference<T: Scalar>(
    graph: &CsrMatrix<T>,
    source: usize,
) -> Result<BfsTree, SparseError> {
    if source >= graph.nrows() || graph.nrows() != graph.ncols() {
        return bfs(graph, source); // reuse the error paths
    }
    let n = graph.nrows();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<usize>> = vec![None; n];
    levels[source] = Some(0);
    let mut queue = std::collections::VecDeque::from([(source, 0)]);
    while let Some((u, lu)) = queue.pop_front() {
        let (cols, _) = graph.row(u);
        for &v in cols {
            if levels[v].is_none() {
                levels[v] = Some(lu + 1);
                parents[v] = Some(u);
                queue.push_back((v, lu + 1));
            }
        }
    }
    Ok(BfsTree {
        source,
        levels,
        parents,
    })
}

/// Connected components of an undirected graph (pattern-symmetric CSR):
/// returns a component label per vertex and the number of components.
pub fn connected_components<T: Scalar>(
    graph: &CsrMatrix<T>,
) -> Result<(Vec<usize>, usize), SparseError> {
    if graph.nrows() != graph.ncols() {
        return Err(SparseError::DimensionMismatch {
            op: "connected_components",
            left: (graph.nrows() as u64, graph.ncols() as u64),
            right: (graph.ncols() as u64, graph.nrows() as u64),
        });
    }
    let n = graph.nrows();
    let mut labels = vec![usize::MAX; n];
    let mut components = 0usize;
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        let label = components;
        components += 1;
        let mut stack = vec![start];
        labels[start] = label;
        while let Some(u) = stack.pop() {
            let (cols, _) = graph.row(u);
            for &v in cols {
                if labels[v] == usize::MAX {
                    labels[v] = label;
                    stack.push(v);
                }
            }
        }
    }
    Ok((labels, components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::semiring::PlusTimes;

    fn csr(n: u64, undirected_edges: &[(u64, u64)]) -> CsrMatrix<u64> {
        let mut all = Vec::new();
        for &(u, v) in undirected_edges {
            all.push((u, v));
            if u != v {
                all.push((v, u));
            }
        }
        let coo = CooMatrix::from_edges(n, n, all).unwrap();
        CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap()
    }

    #[test]
    fn bfs_on_a_path() {
        let g = csr(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let tree = bfs(&g, 0).unwrap();
        assert_eq!(
            tree.levels,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4)]
        );
        assert_eq!(tree.reached(), 5);
        assert_eq!(tree.max_level(), 4);
        tree.validate(&g).unwrap();
    }

    #[test]
    fn bfs_on_a_star_reaches_everything_in_one_hop() {
        let g = csr(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let from_centre = bfs(&g, 0).unwrap();
        assert_eq!(from_centre.max_level(), 1);
        from_centre.validate(&g).unwrap();
        let from_leaf = bfs(&g, 3).unwrap();
        assert_eq!(from_leaf.max_level(), 2);
        assert_eq!(from_leaf.reached(), 6);
        from_leaf.validate(&g).unwrap();
    }

    #[test]
    fn bfs_handles_disconnected_vertices() {
        let g = csr(5, &[(0, 1), (1, 2)]);
        let tree = bfs(&g, 0).unwrap();
        assert_eq!(tree.reached(), 3);
        assert_eq!(tree.levels[3], None);
        assert_eq!(tree.parents[4], None);
        tree.validate(&g).unwrap();
    }

    #[test]
    fn bfs_levels_match_reference_implementation() {
        let g = csr(
            10,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (2, 8),
                (8, 9),
            ],
        );
        for source in 0..10 {
            let fast = bfs(&g, source).unwrap();
            let reference = bfs_reference(&g, source).unwrap();
            assert_eq!(
                fast.levels, reference.levels,
                "levels differ from source {source}"
            );
            fast.validate(&g).unwrap();
        }
    }

    #[test]
    fn bfs_error_paths() {
        let g = csr(3, &[(0, 1)]);
        assert!(bfs(&g, 7).is_err());
        let rect = CsrMatrix::<u64>::zeros(2, 3);
        assert!(bfs(&rect, 0).is_err());
        assert!(connected_components(&rect).is_err());
    }

    #[test]
    fn connected_components_counts() {
        let g = csr(7, &[(0, 1), (1, 2), (3, 4), (5, 5)]);
        let (labels, count) = connected_components(&g).unwrap();
        assert_eq!(count, 4); // {0,1,2}, {3,4}, {5}, {6}
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[6]);
    }

    #[test]
    fn validation_rejects_corrupted_trees() {
        let g = csr(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut tree = bfs(&g, 0).unwrap();
        tree.levels[3] = Some(1); // wrong level
        assert!(tree.validate(&g).is_err());
        let mut tree = bfs(&g, 0).unwrap();
        tree.parents[2] = Some(0); // (0,2) is not an edge
        assert!(tree.validate(&g).is_err());
        let mut tree = bfs(&g, 0).unwrap();
        tree.parents[0] = Some(1); // source must have no parent
        assert!(tree.validate(&g).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::semiring::PlusTimes;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = CsrMatrix<u64>> {
        (2u64..20).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |pairs| {
                let mut edges = Vec::new();
                for (u, v) in pairs {
                    if u != v {
                        edges.push((u, v));
                        edges.push((v, u));
                    }
                }
                let coo = CooMatrix::from_edges(n, n, edges).unwrap();
                CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap()
            })
        })
    }

    proptest! {
        #[test]
        fn parallel_bfs_matches_reference(g in arb_graph(), source_seed in 0usize..1000) {
            let source = source_seed % g.nrows();
            let fast = bfs(&g, source).unwrap();
            let reference = bfs_reference(&g, source).unwrap();
            prop_assert_eq!(&fast.levels, &reference.levels);
            prop_assert!(fast.validate(&g).is_ok());
        }

        #[test]
        fn components_partition_vertices(g in arb_graph()) {
            let (labels, count) = connected_components(&g).unwrap();
            prop_assert_eq!(labels.len(), g.nrows());
            let max_label = labels.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(max_label + 1, count);
            // Every edge joins vertices with the same label.
            for (u, v, _) in g.iter() {
                prop_assert_eq!(labels[u], labels[v]);
            }
        }
    }
}
