"""NeuraSim on the one numeric path: pinned calibration runs, a verify
step that still catches a faulty NeuraMem, and byte-identical outputs
across the cycle, functional and analytic backends."""

import dataclasses

import numpy as np
import pytest

from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.neuramem import NeuraMem
from repro.sparse.csr import CSRMatrix

#: (graph, nodes, config) -> (cycles, events, hacc_instructions, evictions,
#: spills, noc_flits, output_nnz) of the calibration jobs at dataset seed 3.
GOLDEN = {
    ("wiki-Vote", 96, "Tile-4"): (3706, 91725, 13538, 6484, 0, 13538, 6484),
    ("wiki-Vote", 96, "Tile-16"): (3322, 88163, 13538, 6484, 0, 13538, 6484),
    ("facebook", 80, "Tile-4"): (3432, 89385, 13934, 5396, 0, 13934, 5396),
    ("facebook", 80, "Tile-16"): (3112, 85593, 13934, 5396, 0, 13934, 5396),
}


@pytest.mark.parametrize("job", sorted(GOLDEN), ids=lambda job: "-".join(
    map(str, job)))
def test_calibration_jobs_pinned(job):
    name, nodes, config = job
    a = load_dataset(name, max_nodes=nodes, seed=3).adjacency_csr()
    with Session(config, backend="cycle") as session:
        result = session.run(SpGEMMSpec(a=a, verify=True, source=name))
    report = result.report
    assert result.metrics["verified"] is True
    assert report.max_abs_error == 0.0
    assert (report.cycles, report.events, report.hacc_instructions,
            report.evictions, report.spills, report.noc_flits,
            report.output_nnz) == GOLDEN[job]
    assert result.metrics["output_nnz"] == report.output_nnz


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
        config = session.chip.config
    return NeuraChipAccelerator(config).run(program, verify=True)


def fault_on_first_tag(monkeypatch, program, rewrite):
    """Rewrite the first HACC the NeuraMems apply for the program's first
    tag through ``rewrite``; the rest of the run is left alone."""
    target = int(program.hacc_stream().tag[0])
    original = NeuraMem._apply
    pending = [True]

    def faulty(self, hacc, dispatch_time):
        if pending and hacc.tag == target:
            pending.clear()
            hacc = rewrite(hacc)
        original(self, hacc, dispatch_time)

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
                           dataclasses.replace(hacc,
                                               value=hacc.value * factor))
        report = simulate(program)
        assert report.correct is False
        assert report.max_abs_error == pytest.approx(abs(value))

    def test_key_outside_the_output_structure(self, monkeypatch, program):
        arrays = program.arrays
        stream = program.hacc_stream()
        row = int(stream.out_row[0])
        taken = set(arrays.out_indices[arrays.out_indptr[row]:
                                       arrays.out_indptr[row + 1]].tolist())
        stray = min(set(range(program.shape[1])) - taken)
        fault_on_first_tag(monkeypatch, program, lambda hacc:
                           dataclasses.replace(hacc, out_col=stray))
        report = simulate(program)
        assert report.correct is False
        assert report.max_abs_error > 0.0

    def test_extra_zero_key_fails_the_key_check(self, monkeypatch, program):
        arrays = program.arrays
        taken = set(arrays.out_indices[arrays.out_indptr[0]:
                                       arrays.out_indptr[1]].tolist())
        stray = (0, min(set(range(program.shape[1])) - taken))
        original = NeuraChipAccelerator._on_evict

        def evict_with_stray(self, line, evict_time):
            original(self, line, evict_time)
            self._output.setdefault(stray, 0.0)

        monkeypatch.setattr(NeuraChipAccelerator, "_on_evict",
                            evict_with_stray)
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
