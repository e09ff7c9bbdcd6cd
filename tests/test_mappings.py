"""Unit tests for the compute-mapping schemes (Sections 2.4 / 3.5)."""

import hashlib

import numpy as np
import pytest

from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.hashing import MAPPING_SCHEMES, lookup_table_bytes, map_haccs, map_tags
from repro.hashing.balance import mapping_heatmap, summarize_counts
from repro.hashing.mappings import drhm_gamma, row_gammas

_MASK = 0xFFFFFFFF
_PRIME = 2_654_435_761


# ----------------------------------------------------------------------
# The scalar per-tag rules, one call per TAG: the reference the column
# must reproduce
# ----------------------------------------------------------------------
def _scalar_gamma(seed):
    return int(np.random.default_rng(seed).integers(1, 1 << 30)) | 1


def _scalar_drhm(tag, gamma, n):
    masked = ((tag << 16) & _MASK) >> 16
    product = (masked * gamma) & _MASK
    product ^= product >> 16
    return product % n


def _scalar_mapper(scheme, n, seed):
    """``map(tag, gamma)`` of one scheme; the random table is drawn lazily
    in first-sight order."""
    rng, table = np.random.default_rng(seed), {}

    def random_lookup(tag, _gamma):
        if tag not in table:
            table[tag] = int(rng.integers(0, n))
        return table[tag]

    return {"ring": lambda tag, _gamma: tag % n,
            "modular": lambda tag, _gamma: tag * _PRIME % (1 << 61) % n,
            "random": random_lookup,
            "drhm": lambda tag, gamma: _scalar_drhm(tag, gamma, n)}[scheme]


def reference_hacc_column(scheme, tags, rows, n, seed):
    """Per-HACC mapping in program order, DRHM seeded per output row."""
    mapper, gammas = _scalar_mapper(scheme, n, seed), {}
    column = []
    for tag, row in zip(tags, rows):
        if row not in gammas:
            gammas[row] = _scalar_gamma(
                (row * _PRIME + seed * 40_503 + 1) & _MASK)
        column.append(mapper(tag & _MASK, gammas[row]))
    return column


def reference_heatmap(scheme, a_csc, b_csr, n_cores, n_mems):
    """Figure 12/13 heat map, one partial product at a time, seed 0; DRHM
    reseeds after each non-empty A column."""
    mapper = _scalar_mapper(scheme, n_mems, 0)
    gamma = _scalar_gamma(0)
    heatmap = np.zeros((n_cores, n_mems), dtype=np.int64)
    for k in range(a_csc.shape[1]):
        a_rows, _ = a_csc.col(k)
        b_cols, _ = b_csr.row(k)
        if a_rows.size == 0 or b_cols.size == 0:
            continue
        for i in a_rows.tolist():
            for j in b_cols.tolist():
                tag = (i * b_csr.shape[1] + j) & _MASK
                heatmap[k % n_cores, mapper(tag, gamma)] += 1
        gamma = _scalar_gamma((k + 1) * 2_246_822_519 % (1 << 32))
    return heatmap


@pytest.fixture(scope="module")
def wiki_stream():
    a = load_dataset("wiki-Vote", max_nodes=96, seed=3).adjacency_csr()
    with Session("Tile-4", backend="analytic") as session:
        return session.run(SpGEMMSpec(a=a)).program.hacc_stream()


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [7, 16, 64])
@pytest.mark.parametrize("scheme", MAPPING_SCHEMES)
def test_hacc_column_matches_scalar_rules(wiki_stream, scheme, n, seed):
    column = map_haccs(scheme, wiki_stream.tag, wiki_stream.out_row, n, seed)
    assert column.dtype == np.int64
    assert column.tolist() == reference_hacc_column(
        scheme, wiki_stream.tag.tolist(), wiki_stream.out_row.tolist(), n,
        seed)


@pytest.mark.parametrize("scheme", MAPPING_SCHEMES)
def test_heatmap_matches_scalar_rules(scheme):
    dataset = load_dataset("facebook", max_nodes=48, seed=1)
    a_csc, a_csr = dataset.adjacency_csc(), dataset.adjacency_csr()
    assert np.array_equal(
        mapping_heatmap(scheme, a_csc, a_csr, 4, 8),
        reference_heatmap(scheme, a_csc, a_csr, 4, 8))


#: sha256 of the int64 bytes of mapping_heatmap(scheme, A, A, 16, 16) on
#: the 128-node cora and dense graphs (ring and modular coincide: Knuth's
#: prime is 1 mod 16).
HEATMAP_DIGESTS = {
    ("cora", "ring"):
        "2e812b0ce19a1184fe244014b80c32a280cfa7decc78d339436b473bf5e12b14",
    ("cora", "modular"):
        "2e812b0ce19a1184fe244014b80c32a280cfa7decc78d339436b473bf5e12b14",
    ("cora", "random"):
        "990c4506c039a9d5583e2214cda1665301e46a94ded18c1fc2436b2ed944fe05",
    ("cora", "drhm"):
        "7356a34be28c84384901b20a7b8f5db078ae24df7a37099adc28f5707cdf4ea9",
    ("dense", "ring"):
        "eafa62f12a19366d05f57c331ffc9719f76cf430f97d868f0690fce7b358d054",
    ("dense", "modular"):
        "eafa62f12a19366d05f57c331ffc9719f76cf430f97d868f0690fce7b358d054",
    ("dense", "random"):
        "7fc7af37a0ea831809d36adf04dc0921a2756d49053fb53a4d43b46f8bb9fe03",
    ("dense", "drhm"):
        "0b522d8a5225c3b373acdfc8c97bd04e170f8208c6867530e201967e48383c15",
}


@pytest.mark.parametrize("job", sorted(HEATMAP_DIGESTS),
                         ids=lambda job: "-".join(job))
def test_heatmap_digest(job):
    name, scheme = job
    dataset = load_dataset(name, max_nodes=128)
    heatmap = mapping_heatmap(scheme, dataset.adjacency_csc(),
                              dataset.adjacency_csr(), 16, 16)
    assert (heatmap.dtype, heatmap.shape) == (np.int64, (16, 16))
    assert hashlib.sha256(heatmap.tobytes()).hexdigest() \
        == HEATMAP_DIGESTS[job]


class TestFactory:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown mapping scheme"):
            map_tags("quantum", np.arange(4), 8)

    def test_invalid_resource_count(self):
        with pytest.raises(ValueError):
            map_tags("ring", np.arange(4), 0)


class TestRing:
    def test_modulo_behaviour(self):
        assert map_tags("ring", np.array([0, 9, 8 * 5]), 8).tolist() \
            == [0, 1, 0]

    def test_strided_tags_hit_few_resources(self):
        hits = set(map_tags("ring", np.arange(0, 1600, 16), 16).tolist())
        assert len(hits) == 1  # the hot-spot weakness of ring mapping

    def test_no_lookup_state(self):
        assert lookup_table_bytes("ring", n_tags=100, n_rows=10) == 0


class TestModular:
    def test_in_range(self):
        index = map_tags("modular", np.arange(500), 12)
        assert index.min() >= 0 and index.max() < 12

    def test_consistency(self):
        assert len(set(map_tags("modular", np.full(5, 12345), 8).tolist())) \
            == 1


class TestRandomLookup:
    def test_consistency_via_table(self):
        index = map_tags("random", np.array([999, 3, 999, 7] + [999] * 10), 8,
                         seed=1)
        assert (index[[0, 2] + list(range(4, 14))] == index[0]).all()

    def test_table_grows_with_distinct_tags(self):
        assert lookup_table_bytes("random", n_tags=100, n_rows=1) == 100 * 8

    def test_distribution_roughly_uniform(self):
        counts = np.bincount(map_tags("random", np.arange(4000), 4),
                             minlength=4)
        assert counts.min() > 800


class TestDRHM:
    def test_in_range_and_consistent_before_reseed(self):
        gamma = drhm_gamma(3)
        values = map_tags("drhm", np.arange(200), 16, gamma=gamma)
        assert values.min() >= 0 and values.max() < 16
        assert values.tolist() == map_tags("drhm", np.arange(200), 16,
                                           seed=3).tolist()

    def test_reseed_changes_mapping(self):
        tags = np.arange(100)
        assert map_tags("drhm", tags, 64, gamma=drhm_gamma(3)).tolist() \
            != map_tags("drhm", tags, 64, gamma=drhm_gamma(4)).tolist()

    def test_group_mapping_is_consistent_across_reseeds(self):
        # Row 5's task keeps its NeuraMem wherever other rows interleave.
        rows = np.array([5, 1, 2, 5, 3, 5])
        column = map_haccs("drhm", np.full(6, 1234), rows, 32, seed=7)
        assert len(set(column[rows == 5].tolist())) == 1

    def test_different_groups_use_different_seeds(self):
        column = map_haccs("drhm", np.full(50, 100), np.arange(50), 64,
                           seed=7)
        assert len(set(column.tolist())) > 5
        assert len(set(row_gammas(np.arange(50), 7).tolist())) == 50

    def test_lookup_table_is_compact(self):
        # Only 4 bytes per row seed, far below a full per-tag table.
        assert lookup_table_bytes("drhm", n_tags=10_000, n_rows=100) \
            == 100 * 4 < lookup_table_bytes("random", n_tags=10_000,
                                            n_rows=100)


class TestBalanceMetrics:
    def test_summarize_counts(self):
        report = summarize_counts("probe", np.array([10, 10, 10, 10]))
        assert report.max_over_mean == pytest.approx(1.0)
        assert report.gini == pytest.approx(0.0, abs=1e-9)

    def test_gini_detects_concentration(self):
        balanced = summarize_counts("a", np.array([5, 5, 5, 5]))
        skewed = summarize_counts("b", np.array([20, 0, 0, 0]))
        assert skewed.gini > balanced.gini
        assert skewed.max_over_mean > balanced.max_over_mean

    def test_load_balance_report_on_dataset(self):
        dataset = load_dataset("wiki-Vote", max_nodes=128)
        heatmap = mapping_heatmap("drhm", dataset.adjacency_csc(),
                                  dataset.adjacency_csr(), 16)
        report = summarize_counts("drhm", heatmap.sum(axis=0))
        assert report.counts.sum() > 0
        assert report.n_resources == 16

    def test_drhm_avoids_ring_hot_spots_on_strided_pattern(self):
        """Ring mapping collapses strided output columns onto few resources
        (the Figure 12 hot spots); DRHM stays balanced."""
        n, n_resources = 64, 16
        dense_a = np.zeros((n, n))
        dense_b = np.zeros((n, n))
        rng = np.random.default_rng(0)
        dense_a[:, rng.integers(0, n, size=4 * n) % n] = 1.0
        # B only has non-zeros in columns that are multiples of n_resources.
        dense_b[:, ::n_resources] = 1.0
        from repro.sparse.convert import coo_to_csc, coo_to_csr, dense_to_coo

        a_csc = coo_to_csc(dense_to_coo(dense_a))
        b_csr = coo_to_csr(dense_to_coo(dense_b))
        reports = {
            scheme: summarize_counts(scheme, mapping_heatmap(
                scheme, a_csc, b_csr, n_resources).sum(axis=0))
            for scheme in ("ring", "drhm")}
        assert reports["ring"].gini > 0.5          # severe hot spots
        assert reports["drhm"].gini < reports["ring"].gini
        assert reports["drhm"].max_over_mean < reports["ring"].max_over_mean

    def test_drhm_reasonably_balanced_on_mesh(self):
        dataset = load_dataset("mario002", max_nodes=256)
        heatmap = mapping_heatmap("drhm", dataset.adjacency_csc(),
                                  dataset.adjacency_csr(), 16)
        report = summarize_counts("drhm", heatmap.sum(axis=0))
        assert report.gini < 0.2
        assert report.max_over_mean < 1.6

    def test_heatmap_shape_and_total(self):
        dataset = load_dataset("facebook", max_nodes=96)
        a_csc = dataset.adjacency_csc()
        a_csr = dataset.adjacency_csr()
        heatmap = mapping_heatmap("modular", a_csc, a_csr, n_cores=8, n_mems=16)
        assert heatmap.shape == (8, 16)
        from repro.sparse.bloat import partial_product_count

        assert heatmap.sum() == partial_product_count(a_csr, a_csr)

    def test_empty_operands_give_an_empty_heatmap(self):
        dataset = load_dataset("facebook", max_nodes=16)
        a_csc, a_csr = dataset.adjacency_csc(), dataset.adjacency_csr()
        from repro.sparse.csr import CSRMatrix

        empty = CSRMatrix.empty(a_csr.shape)
        for scheme in MAPPING_SCHEMES:
            heatmap = mapping_heatmap(scheme, a_csc, empty, 4)
            assert heatmap.shape == (4, 4) and not heatmap.any()
