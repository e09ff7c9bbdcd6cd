"""NeuraSim on the one numeric path: pinned calibration runs, a verify
step that still catches a faulty NeuraMem, and byte-identical outputs
across the cycle, functional and analytic backends."""

import dataclasses
import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from repro.arch.config import get_config
from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.hashpad import SpillStore
from repro.sim.neuramem import NeuraMem
from repro.sim.stats import Histogram
from repro.sparse.csr import CSRMatrix

#: (graph, nodes, config) -> (cycles, events, hacc_instructions, evictions,
#: spills, noc_flits, output_nnz) of the calibration jobs at dataset seed 3.
GOLDEN = {
    ("wiki-Vote", 96, "Tile-4"): (3706, 81860, 13538, 6484, 0, 13538, 6484),
    ("wiki-Vote", 96, "Tile-16"): (3322, 78298, 13538, 6484, 0, 13538, 6484),
    ("facebook", 80, "Tile-4"): (3432, 79185, 13934, 5396, 0, 13934, 5396),
    ("facebook", 80, "Tile-16"): (3112, 75393, 13934, 5396, 0, 13934, 5396),
}


#: The ``report.counters`` keys of every calibration job: each event kind
#: that happens, none of the zero counts (spills, incomplete lines).
CALIBRATION_COUNTERS = {
    "dispatcher.issued", "core.busy_cycles", "core.stall_cycles",
    "core.haccs_dispatched", "core.instructions_retired",
    "neuramem.accumulations", "neuramem.insertions", "neuramem.evictions",
    "memctrl.reads", "memctrl.buffer_hits", "memctrl.coalesced",
    "memctrl.writes", "hbm.row_hits", "hbm.row_misses", "hbm.bytes_read",
    "hbm.bytes_written", "noc.flits", "noc.hop_flits",
}


@pytest.fixture(scope="module", params=sorted(GOLDEN),
                ids=lambda job: "-".join(map(str, job)))
def calibration(request):
    """``(job, result)`` of one calibration job on the cycle backend."""
    name, nodes, config = request.param
    a = load_dataset(name, max_nodes=nodes, seed=3).adjacency_csr()
    with Session(config, backend="cycle") as session:
        return request.param, session.run(SpGEMMSpec(a=a, verify=True,
                                                     source=name))


def test_calibration_jobs_pinned(calibration):
    job, result = calibration
    report = result.report
    assert result.metrics["verified"] is True
    assert report.max_abs_error == 0.0
    assert (report.cycles, report.events, report.hacc_instructions,
            report.evictions, report.spills, report.noc_flits,
            report.output_nnz) == GOLDEN[job]
    assert result.metrics["output_nnz"] == report.output_nnz


def test_calibration_counters_agree_with_report(calibration):
    """Each event is counted once, by its component: the counter dump and
    the report fields read the same attributes, and the CPI histograms hold
    one observation per instruction."""
    _job, result = calibration
    report = result.report
    counters = report.counters
    assert set(counters) == CALIBRATION_COUNTERS
    for key, value in (("core.busy_cycles", report.busy_cycles),
                       ("core.stall_cycles", report.stall_cycles),
                       ("core.instructions_retired", report.mmh_instructions),
                       ("neuramem.evictions", report.evictions),
                       ("neuramem.spills", report.spills),
                       ("noc.flits", report.noc_flits)):
        assert counters.get(key, 0.0) == value, key
    assert (counters["hbm.bytes_read"] + counters["hbm.bytes_written"]
            == report.memory_traffic_bytes)
    assert (report.mmh_cpi_histogram.total_observations
            == report.mmh_instructions)
    assert (report.hacc_cpi_histogram.total_observations
            == report.hacc_instructions)


# ----------------------------------------------------------------------
# Bit-identity of every report field
# ----------------------------------------------------------------------
def report_digest(report) -> str:
    """sha256 over every ``SimulationReport`` field except the host-side
    ``wall_clock_seconds`` and ``events`` (which counts kernel events, not
    modelled work), histogram bins and counters included; floats by
    ``repr``, so the digest moves with any bit of any value."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(report):
        if field.name in ("wall_clock_seconds", "events"):
            continue
        value = getattr(report, field.name)
        if isinstance(value, Histogram):
            value = (value.bin_width, value.n_bins, value.counts.tolist(),
                     value.total_observations, value.sum_values)
        elif isinstance(value, dict):
            value = sorted(value.items())
        digest.update(f"{field.name}={value!r};".encode())
    return digest.hexdigest()


#: report_digest of each calibration job.
CALIBRATION_DIGESTS = {
    ("facebook", 80, "Tile-16"):
        "53bc63820d789d6067707d528dabc5f5c73ba6a4bd4254bdd0ee718642540ca7",
    ("facebook", 80, "Tile-4"):
        "eaa17af987d13bfac0bfb6c1f555a04ddff132d2688446a030f41928632fe4c1",
    ("wiki-Vote", 96, "Tile-16"):
        "371f410ca7fceb52d1fb4eb36fa3547540637e5736fccf962d37cf287f80cda2",
    ("wiki-Vote", 96, "Tile-4"):
        "74969e377eb9350b2e54246dfbb7d53b817732915e5f684d202f30d802eed823",
}


def test_calibration_report_digest(calibration):
    job, result = calibration
    assert report_digest(result.report) == CALIBRATION_DIGESTS[job]


@pytest.fixture(scope="module")
def tiny_program():
    a = load_dataset("wiki-Vote", max_nodes=32, seed=3).adjacency_csr()
    with Session("Tile-4", backend="analytic") as session:
        return session.run(SpGEMMSpec(a=a)).program


#: (hashlines, eviction mode, mapping) -> (spills, report_digest) of the
#: Tile-4 run of ``tiny_program``: two-line pads spill and resume, and
#: barrier runs flush on the barrier interval.
TINY_PAD_DIGESTS = {
    (2, "barrier", "drhm"): (
        1191, "de170d86067ec9a96f9168d27a2c8a0a14c759658f3ddae0ec76377dc8a76f71"),
    (2, "barrier", "ring"): (
        1165, "5a9e6cb2a74069145e3d283847b3159550feba637d9dcb8dc1064cb7b3123936"),
    (2, "rolling", "drhm"): (
        1179, "181c9873571a13803faff93e1bc0a9919de34eee9cf24e8c2f016c76a7f0defe"),
    (2, "rolling", "ring"): (
        1172, "5ee75a9b901491a48a0bfa233273879c058d374b3dd8ff1337c6717e149f4b3e"),
    (16, "barrier", "drhm"): (
        12, "a29ae434f94b5268c72023f65493b43c2606ea7cc87e1e5e21677758a018ca73"),
    (16, "barrier", "ring"): (
        3, "e4b70278de9ceeb231c8706ecae9df7363108b04484b516334576e2f03eb8451"),
    (16, "rolling", "drhm"): (
        9, "18ac36993bbc6b49ca90931b86f16a08f71d90d2fb69c2e4cf4c31246f094071"),
    (16, "rolling", "ring"): (
        3, "aa82db7f83cc94f791b635bb802cc36841bc598b19387730dc0498d78065b844"),
}


@pytest.mark.parametrize("job", sorted(TINY_PAD_DIGESTS),
                         ids=lambda job: "-".join(map(str, job)))
def test_tiny_pad_report_digest(tiny_program, job):
    hashlines, mode, mapping = job
    with Session("Tile-4", backend="analytic") as session:
        config = session.ctx.config
    config = dataclasses.replace(
        config, mem=dataclasses.replace(config.mem, hashlines=hashlines))
    report = NeuraChipAccelerator(config, eviction_mode=mode,
                                  mapping_scheme=mapping).run(tiny_program)
    assert report.correct is True
    assert (report.spills, report_digest(report)) == TINY_PAD_DIGESTS[job]


#: (config, hashlines, eviction mode, mapping) -> (spills, events,
#: report_digest) of the run of ``tiny_program``: the mapping schemes the
#: Tile-4 table leaves out, and Tile-16 and Tile-64 with two-line and
#: full-size pads.  ``events`` pins the kernel's event stream as well.
TINY_CHIP_DIGESTS = {
    ("Tile-16", 2, "barrier", "drhm"): (
        654, 12489, "8bb2de8bf25a0df64806af9037122a7d926cc99e2e853fa79ac92c087a5b51ba"),
    ("Tile-16", 2, "rolling", "drhm"): (
        654, 12489, "1b23cd18b16558f7c306d7c6368a7de72b7ba68e366fc309fcf8a14fc441ac96"),
}


@pytest.mark.parametrize("job", sorted(TINY_CHIP_DIGESTS),
                         ids=lambda job: "-".join(map(str, job)))
def test_tiny_chip_report_digest(tiny_program, job):
    name, hashlines, mode, mapping = job
    config = get_config(name)
    config = dataclasses.replace(
        config, mem=dataclasses.replace(config.mem, hashlines=hashlines))
    report = NeuraChipAccelerator(config, eviction_mode=mode,
                                  mapping_scheme=mapping).run(tiny_program)
    assert report.correct is True
    assert ((report.spills, report.events, report_digest(report))
            == TINY_CHIP_DIGESTS[job])


# ----------------------------------------------------------------------
# Verify catches faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def program():
    a = load_dataset("wiki-Vote", max_nodes=48, seed=3).adjacency_csr()
    with Session("Tile-4", backend="analytic") as session:
        return session.run(SpGEMMSpec(a=a)).program


def simulate(program):
    with Session("Tile-4", backend="analytic") as session:
        config = session.ctx.config
    return NeuraChipAccelerator(config).run(program, verify=True)


class HACC(NamedTuple):
    """A HACC's fields in ``NeuraMem._apply`` order."""

    tag: int
    value: float
    counter: int
    out_row: int
    out_col: int
    writeback_addr: int


def fault_on_first_tag(monkeypatch, program, rewrite):
    """Rewrite the first HACC the NeuraMems apply for the program's first
    tag through ``rewrite``; the rest of the run is left alone."""
    target = int(program.hacc_stream().tag[0])
    original = NeuraMem._apply
    pending = [True]

    def faulty(self, *fields):
        hacc, dispatch_time = HACC(*fields[:-1]), fields[-1]
        if pending and hacc.tag == target:
            pending.clear()
            hacc = rewrite(hacc)
        original(self, *hacc, dispatch_time)

    monkeypatch.setattr(NeuraMem, "_apply", faulty)


class TestVerifyCatchesFaults:
    def test_clean_run_is_correct(self, program):
        report = simulate(program)
        assert report.correct is True
        assert report.max_abs_error == 0.0

    @pytest.mark.parametrize("factor", [0.0, 2.0], ids=["drop", "double"])
    def test_dropped_or_doubled_accumulation(self, monkeypatch, program,
                                             factor):
        value = float(program.hacc_stream().value[0])
        fault_on_first_tag(monkeypatch, program, lambda hacc:
                           hacc._replace(value=hacc.value * factor))
        report = simulate(program)
        assert report.correct is False
        assert report.max_abs_error == pytest.approx(abs(value))

    def test_key_outside_the_output_structure(self, monkeypatch, program):
        stream = program.hacc_stream()
        row = int(stream.out_row[0])
        taken = set(program.out_indices[program.out_indptr[row]:
                                        program.out_indptr[row + 1]].tolist())
        stray = min(set(range(program.shape[1])) - taken)
        fault_on_first_tag(monkeypatch, program, lambda hacc:
                           hacc._replace(out_col=stray))
        report = simulate(program)
        assert report.correct is False
        assert report.max_abs_error > 0.0

    def test_extra_zero_key_fails_the_key_check(self, monkeypatch, program):
        taken = set(program.out_indices[program.out_indptr[0]:
                                        program.out_indptr[1]].tolist())
        stray = (0, min(set(range(program.shape[1])) - taken))
        original = SpillStore.evict

        def evict_with_stray(self, line):
            original(self, line)
            self.output.setdefault(stray, 0.0)

        monkeypatch.setattr(SpillStore, "evict", evict_with_stray)
        report = simulate(program)
        assert report.correct is False  # every value matches; a key does not
        assert report.max_abs_error == 0.0


# ----------------------------------------------------------------------
# One numeric path
# ----------------------------------------------------------------------
def signed_operands() -> tuple[CSRMatrix, CSRMatrix]:
    """Signed integer-valued operands whose products cancel exactly in
    some output slots (integers keep every partial sum exact)."""
    rng = np.random.default_rng(4)
    a = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=(24, 20))
    b = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=(20, 16))
    a[0, :2], b[:2, 0] = (1.0, 1.0), (1.0, -1.0)  # C[0, 0] = 1 - 1 = 0
    a[0, 2:], b[2:, 0] = 0.0, 0.0
    return CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)


@pytest.mark.parametrize("operands", ["graph", "signed"])
def test_backends_return_byte_identical_outputs(operands):
    if operands == "graph":
        a = load_dataset("facebook", max_nodes=48, seed=3).adjacency_csr()
        b = a
    else:
        a, b = signed_operands()
    outputs = {}
    for backend in ("cycle", "functional", "analytic"):
        with Session("Tile-4", backend=backend) as session:
            result = session.run(SpGEMMSpec(a=a, b=b, verify=True))
        if backend == "cycle":
            assert result.metrics["verified"] is True
        outputs[backend] = result.output
        program = result.program
    reference = outputs["analytic"]
    for backend, output in outputs.items():
        for name in ("indptr", "indices", "data"):
            got, want = getattr(output, name), getattr(reference, name)
            assert got.dtype == want.dtype, (backend, name)
            assert got.tobytes() == want.tobytes(), (backend, name)
    # The replay keeps the compiled output structure, cancelled slots too.
    assert reference.nnz == program.output_nnz
    assert np.allclose(reference.to_dense(), a.to_dense() @ b.to_dense())
    if operands == "signed":
        assert reference.to_dense()[0, 0] == 0.0
        assert 0.0 in reference.data
