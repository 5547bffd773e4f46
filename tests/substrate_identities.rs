//! Integration tests for the algebraic identities the paper relies on,
//! checked across crate boundaries on realised graphs: the Kronecker
//! mixed-product rule, BFS connectivity of star products, and the
//! equivalence of the independent triangle counters.

use extreme_graphs::bignum::BigUint;
use extreme_graphs::core::powerlaw::star_products_unique;
use extreme_graphs::sparse::bfs::{bfs, connected_components};
use extreme_graphs::sparse::ops::spgemm;
use extreme_graphs::sparse::triangles::{
    count_triangles, count_triangles_merge, count_triangles_oriented,
};
use extreme_graphs::sparse::{kron_coo, CsrMatrix, PlusTimes};
use extreme_graphs::{KroneckerDesign, SelfLoop, StarGraph};

fn csr(coo: &extreme_graphs::sparse::CooMatrix<u64>) -> CsrMatrix<u64> {
    CsrMatrix::from_coo::<PlusTimes>(coo).unwrap()
}

#[test]
fn mixed_product_rule_on_star_adjacencies() {
    // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD) with star adjacency matrices.
    let a = StarGraph::new(3, SelfLoop::Centre).unwrap().adjacency();
    let b = StarGraph::new(4, SelfLoop::None).unwrap().adjacency();
    let c = StarGraph::new(3, SelfLoop::Leaf).unwrap().adjacency();
    let d = StarGraph::new(4, SelfLoop::Centre).unwrap().adjacency();

    let left = spgemm::<u64, PlusTimes>(
        &csr(&kron_coo::<u64, PlusTimes>(&a, &b).unwrap()),
        &csr(&kron_coo::<u64, PlusTimes>(&c, &d).unwrap()),
    )
    .unwrap();
    let ac = spgemm::<u64, PlusTimes>(&csr(&a), &csr(&c)).unwrap();
    let bd = spgemm::<u64, PlusTimes>(&csr(&b), &csr(&d)).unwrap();
    let right = csr(&kron_coo::<u64, PlusTimes>(&ac.to_coo(), &bd.to_coo()).unwrap());
    assert_eq!(left, right);
}

#[test]
fn centre_loop_products_are_connected_leaf_and_plain_are_not_necessarily() {
    // Centre-loop products are connected through the all-centres hub.
    let centre = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
    let graph = csr(&centre.realize(1_000_000).unwrap());
    let (_, components) = connected_components(&graph).unwrap();
    assert_eq!(components, 1);
    let tree = bfs(&graph, 0).unwrap();
    assert_eq!(tree.reached(), graph.nrows());
    tree.validate(&graph).unwrap();

    // The plain bipartite product splits into multiple bipartite pieces
    // (Weichsel's theorem) — exactly what Figure 1 illustrates.
    let plain = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
    let graph = csr(&plain.realize(1_000_000).unwrap());
    let (_, components) = connected_components(&graph).unwrap();
    assert!(components > 1, "bipartite star products are disconnected");
}

#[test]
fn triangle_counters_agree_on_kronecker_graphs() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], self_loop).unwrap();
        let graph = csr(&design.realize(1_000_000).unwrap());
        let by_formula = count_triangles(&graph).unwrap();
        let by_merge = count_triangles_merge(&graph).unwrap();
        let by_rank = count_triangles_oriented(&graph).unwrap();
        assert_eq!(by_formula, by_merge);
        assert_eq!(by_formula, by_rank);
        assert_eq!(BigUint::from(by_formula), design.triangles().unwrap());
    }
}

#[test]
fn product_uniqueness_controls_perfect_power_law() {
    // Unique products -> exact n(d) = c/d; colliding products -> not.
    let unique = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
    assert!(star_products_unique(&[3, 4, 5]));
    assert!(unique
        .degree_distribution()
        .perfect_power_law_constant()
        .is_some());

    let colliding = KroneckerDesign::from_star_points(&[2, 3, 6], SelfLoop::None).unwrap();
    assert!(!star_products_unique(&[2, 3, 6]));
    assert!(colliding
        .degree_distribution()
        .perfect_power_law_constant()
        .is_none());
    // Even so, every exact count still holds for the colliding design.
    let graph = colliding.realize(100_000).unwrap();
    assert_eq!(BigUint::from(graph.nnz() as u64), colliding.edges());
}
