"""Unit tests for the synthetic dataset generators and the named suite."""

import hashlib

import numpy as np
import pytest

from repro.datasets import generators
from repro.datasets.features import feature_matrix, gcn_weight_matrix
from repro.datasets.suite import (
    GNN_SUITE,
    TABLE1_SUITE,
    available_datasets,
    degree_statistics,
    load_dataset,
    load_table1_suite,
)
from repro.sparse.csr import csr_problems


class TestGenerators:
    @pytest.mark.parametrize("generator,kwargs", [
        (generators.erdos_renyi_graph, {"m": 200}),
        (generators.barabasi_albert_graph, {"attach": 3}),
        (generators.kronecker_power_law_graph, {"m": 300}),
        (generators.mesh_graph_2d, {}),
        (generators.mesh_graph_3d, {}),
        (generators.road_network_graph, {}),
        (generators.small_world_graph, {}),
        (generators.circuit_graph, {}),
    ])
    def test_generators_produce_valid_square_adjacency(self, generator, kwargs):
        graph = generator(100, **kwargs)
        assert graph.shape == (100, 100)
        assert graph.nnz > 0
        graph.validate()

    def test_generators_are_deterministic(self):
        a = generators.barabasi_albert_graph(80, attach=2, seed=42)
        b = generators.barabasi_albert_graph(80, attach=2, seed=42)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_different_seeds_differ(self):
        a = generators.erdos_renyi_graph(80, 200, seed=1)
        b = generators.erdos_renyi_graph(80, 200, seed=2)
        assert not np.array_equal(a.to_dense(), b.to_dense())

    def test_mesh_graph_is_symmetric(self):
        dense = generators.mesh_graph_2d(64).to_dense()
        assert np.array_equal(dense, dense.T)

    def test_power_law_graph_has_skewed_degrees(self):
        graph = generators.barabasi_albert_graph(400, attach=3, seed=0)
        stats = degree_statistics(graph)
        mesh_stats = degree_statistics(generators.mesh_graph_2d(400))
        assert stats["degree_cv"] > mesh_stats["degree_cv"]

    def test_road_network_low_average_degree(self):
        stats = degree_statistics(generators.road_network_graph(400))
        assert stats["mean_degree"] < 6.0

    def test_dense_matrix_generator(self):
        dense = generators.dense_matrix(16)
        assert dense.nnz == 256

    def test_tiny_sizes_do_not_crash(self):
        for gen in (generators.erdos_renyi_graph, generators.mesh_graph_2d,
                    generators.small_world_graph, generators.circuit_graph):
            graph = gen(1) if gen is not generators.erdos_renyi_graph else gen(1, 1)
            assert graph.shape[0] >= 1


class TestSuite:
    def test_table1_has_twenty_datasets(self):
        assert len(TABLE1_SUITE) == 20

    def test_gnn_suite_contains_cora(self):
        assert "cora" in GNN_SUITE
        assert GNN_SUITE["cora"].feature_dim == 1433

    def test_available_datasets_covers_both_suites(self):
        names = available_datasets()
        assert set(TABLE1_SUITE) <= set(names)
        assert set(GNN_SUITE) <= set(names)

    def test_load_dataset_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("not-a-dataset")

    def test_load_dataset_scaling_cap(self):
        dataset = load_dataset("web-Google", max_nodes=512)
        assert dataset.n_nodes <= 520
        assert dataset.scale < 1.0

    def test_load_dataset_deterministic(self):
        a = load_dataset("facebook", max_nodes=128, seed=3)
        b = load_dataset("facebook", max_nodes=128, seed=3)
        assert np.array_equal(a.adjacency.to_dense(), b.adjacency.to_dense())

    def test_load_dense_pseudo_dataset(self):
        dataset = load_dataset("dense", max_nodes=64)
        assert dataset.adjacency.sparsity < 0.05

    def test_dataset_accessors(self):
        dataset = load_dataset("wiki-Vote", max_nodes=128)
        csr = dataset.adjacency_csr()
        csc = dataset.adjacency_csc()
        assert np.allclose(csr.to_dense(), csc.to_dense())
        features = dataset.features(dim=16)
        assert features.shape == (dataset.n_nodes, 16)

    def test_paper_metadata_preserved(self):
        spec = TABLE1_SUITE["facebook"]
        assert spec.paper_nodes == 4039
        assert spec.paper_edges == 60050
        assert spec.paper_bloat_percent == pytest.approx(2872.80)

    def test_load_table1_suite_small(self):
        suite = load_table1_suite(max_nodes=64)
        assert len(suite) == 20
        assert all(ds.n_nodes <= 70 for ds in suite)


class TestFeatures:
    def test_feature_matrix_shape_and_density(self):
        features = feature_matrix(50, 40, density=0.25, seed=1)
        assert features.shape == (50, 40)
        per_row = features.row_nnz_counts()
        assert np.all(per_row == per_row[0])
        assert per_row[0] == pytest.approx(10, abs=1)

    def test_feature_matrix_invalid_args(self):
        for n, dim in ((0, 4), (4, 0), (-3, 4), (4, -1)):
            with pytest.raises(ValueError):
                feature_matrix(n, dim)

    def test_feature_matrix_density_clamped(self):
        for density, per_row in ((5.0, 8), (1.0, 8), (0.0, 1), (-2.0, 1),
                                 (0.01, 1), (0.5, 4)):
            features = feature_matrix(10, 8, density=density)
            assert np.all(features.row_nnz_counts() == per_row)

    @pytest.mark.parametrize("n, dim, density, seed", [
        (1, 1, 0.3, 0), (7, 5, 0.6, 3), (50, 40, 0.25, 1), (300, 32, 0.3, 9),
        (20, 1433, 0.01, 2)])
    def test_feature_matrix_properties(self, n, dim, density, seed):
        features = feature_matrix(n, dim, density=density, seed=seed)
        per_row = max(1, int(round(dim * min(max(density, 1 / dim), 1.0))))
        assert features.shape == (n, dim)
        assert csr_problems(features) == []  # strictly increasing columns
        assert np.all(features.row_nnz_counts() == per_row)
        assert features.indices.min() >= 0 and features.indices.max() < dim
        assert np.all(features.data >= 1e-3) and np.all(features.data < 1.001)

    def test_feature_matrix_deterministic_per_seed(self):
        first, again = (feature_matrix(60, 16, seed=5) for _ in range(2))
        assert np.array_equal(first.indices, again.indices)
        assert np.array_equal(first.data.view(np.uint64),
                              again.data.view(np.uint64))
        other = feature_matrix(60, 16, seed=6)
        assert not np.array_equal(first.indices, other.indices)
        assert not np.array_equal(first.data, other.data)

    def test_gcn_weight_matrix_glorot_range(self):
        weight = gcn_weight_matrix(64, 32, seed=0)
        limit = np.sqrt(6.0 / (64 + 32))
        assert weight.shape == (64, 32)
        assert np.all(np.abs(weight) <= limit + 1e-12)

    def test_gcn_weight_matrix_invalid(self):
        with pytest.raises(ValueError):
            gcn_weight_matrix(0, 3)


def graph_digest(coo) -> str:
    """sha1 over a COO adjacency's shape, rows, cols and data bytes."""
    digest = hashlib.sha1(repr(tuple(coo.shape)).encode())
    for array in (coo.rows, coo.cols, coo.data):
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestGraphPins:
    """The generated graphs are pinned byte for byte: every paper figure,
    benchmark record and ``model.cycles`` reading rests on them, so a
    generator rewrite must reproduce them exactly."""

    @pytest.mark.parametrize("n, attach, seed, expected", [
        (80, 2, 42, "642157bb4ee6b9c8c38565ab2d0e09144d362379"),
        (400, 3, 0, "7a6850a653b983b36c6b41217fff2ae839356e3b"),
        (2000, 8, 0, "23ec97f8224ba686ea880ced8d90c2b8faa6a3b6"),
    ])
    def test_barabasi_albert_graph_pinned(self, n, attach, seed, expected):
        graph = generators.barabasi_albert_graph(n, attach, seed=seed)
        assert graph_digest(graph) == expected

    @pytest.mark.parametrize("name, max_nodes, seed, expected", [
        ("wiki-Vote", 2000, 0, "ecdd868c0fdf00052c957c00c522e8bc7d0c7e5d"),
        ("cora", 2000, 0, "7e162c8863536906e4e70ed8a870ac14a27a4a86"),
        ("wiki-Vote", 96, 3, "64dab6eed6a74971fe9053a77e9015de093e842c"),
        ("facebook", 80, 3, "62501ce6f05961544e4bc8127a21c412d1408a0b"),
        ("amazon-computers", 256, 0, "5ca0201e6517d9dc9e53309732804fdd5f755b45"),
    ])
    def test_load_dataset_pinned(self, name, max_nodes, seed, expected):
        dataset = load_dataset(name, max_nodes=max_nodes, seed=seed)
        assert graph_digest(dataset.adjacency) == expected

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("pool_size, k", [(1, 1), (5, 3), (97, 8), (4000, 16)])
    def test_choice_with_replacement_is_an_index_draw(self, seed, pool_size, k):
        # barabasi_albert_graph draws indices into its endpoint pool; the
        # pinned graphs hold only while that is the draw rng.choice makes.
        pool = np.random.default_rng(seed + 1000).integers(0, 10**6, pool_size)
        chosen = np.random.default_rng(seed).choice(pool, size=k, replace=True)
        indexed = pool[np.random.default_rng(seed).integers(0, pool_size, size=k)]
        assert np.array_equal(chosen, indexed)
