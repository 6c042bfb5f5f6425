"""Level programs are the per-sweep engine path and the per-block loop, bitwise.

A frozen :class:`repro.krylov.AsyncSweepPreconditioner` whose engines run
``"levels"`` applies itself as one :class:`repro.perf.program.LevelProgram`
whose levels cross sweep boundaries.  Every application must equal, bit
for bit, the same sweeps run one engine sweep at a time, and a
preconditioner forced onto the per-block ``"reference"`` loop.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine
from repro.krylov import AsyncSweepPreconditioner
from repro.matrices import get_matrix
from repro.perf import compile_sweep_plan
from repro.perf.program import LevelProgram
from repro.sparse import BlockRowView, CSRMatrix


def _load(name):
    path = Path(__file__).resolve().parent / "test_levels_executor.py"
    spec = importlib.util.spec_from_file_location("_levels_executor_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


#: The non-symmetric block-coupling fixture of the level-executor tests.
nonsymmetric = _load("nonsymmetric")


@pytest.fixture(scope="module")
def fv3():
    return get_matrix("fv3")


@pytest.fixture(scope="module")
def trefethen_2000():
    return get_matrix("Trefethen_2000")


@pytest.fixture(scope="module")
def one_way():
    """Diagonally dominant, block lower triangular: blocks of 16 read only earlier blocks.

    In sequential order, every block reads versions its earlier blocks
    wrote in the same sweep, so the next sweep's update of block 0 has
    nothing to wait for but block 0 itself — except the write-after-read
    edges from the readers of block 0 in the sweep before.
    """
    gen = np.random.default_rng(8)
    n = 160
    dense = np.zeros((n, n))
    i = np.arange(n)
    for shift in (16, 32):
        dense[i[shift:], i[shift:] - shift] = gen.standard_normal(n - shift)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    inner = i[i % 16 != 0]
    dense[inner, inner - 1] += 0.1
    return CSRMatrix.from_dense(dense)


#: System fixture → its default block size (the small fixtures couple
#: blocks of 16 rows).
SYSTEMS = {"fv3": 256, "trefethen_2000": 256, "nonsymmetric": 16, "one_way": 16}

#: name → (config overrides, symmetrize).  Block sizes are multiples of
#: the system's default; "uneven" leaves a short last block.
CASES = {
    "default": ({}, True),
    "omega": ({"omega": 0.85}, True),
    "one-sided": ({}, False),
    "reversed": ({"order": "reversed"}, True),
    "uneven": ({"block_size": "uneven"}, True),
    "single-block": ({"block_size": "single"}, True),
}


def _config(A, block, overrides):
    over = dict(overrides)
    if over.get("block_size") == "uneven":
        over["block_size"] = 3 * block
    elif over.get("block_size") == "single":
        over["block_size"] = A.shape[0]
    over.setdefault("block_size", block)
    return AsyncConfig(local_iterations=2, **over)


def _bits(x):
    return x.view(np.int64)


def _per_sweep(A, config, r, sweeps, symmetrize, reverse_config):
    """The application run one engine sweep at a time."""
    view = BlockRowView(A, block_size=config.block_size)
    z = np.zeros(A.shape[0])
    engines = [AsyncEngine(view, r, config)]
    if symmetrize:
        engines.append(AsyncEngine(view, r, reverse_config))
    for engine in engines:
        assert engine.backend == "levels"
        for _ in range(sweeps):
            engine.sweep(z)
    return z, sum(e.decisions()["levels_mean"] * e.sweep_index for e in engines)


@pytest.mark.parametrize("sweeps", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_program_matches_per_sweep_engines_and_reference(request, system, case, sweeps):
    A = request.getfixturevalue(system)
    overrides, symmetrize = CASES[case]
    config = _config(A, SYSTEMS[system], overrides)
    M = AsyncSweepPreconditioner(A, sweeps=sweeps, config=config, symmetrize=symmetrize)
    ref = AsyncSweepPreconditioner(
        A, sweeps=sweeps, config=dataclasses.replace(config, backend="reference"),
        symmetrize=symmetrize,
    )
    assert M.backend == "levels" and M.levels_per_apply is not None
    assert ref.backend == "reference" and ref.levels_per_apply is None
    gen = np.random.default_rng(5)
    for _ in range(3):
        r = gen.standard_normal(A.shape[0])
        z = M(r)
        z_sweeps, _ = _per_sweep(A, M.config, r, sweeps, symmetrize, M.reverse_config)
        assert np.array_equal(_bits(z), _bits(z_sweeps)), "program != per-sweep engines"
        assert np.array_equal(_bits(z), _bits(ref(r))), "program != reference loop"


def test_cross_sweep_levels_on_fv3(fv3):
    # 2 sweeps forward + 2 reverse: 4 x 39 single-block levels per sweep,
    # but 82 levels when the sweeps overlap.
    M = AsyncSweepPreconditioner(fv3, sweeps=2, config=AsyncConfig(local_iterations=2, block_size=256))
    r = np.random.default_rng(1).standard_normal(fv3.shape[0])
    _, per_sweep_levels = _per_sweep(fv3, M.config, r, 2, True, M.reverse_config)
    assert per_sweep_levels == 156
    assert M.levels_per_apply == 82
    assert M.decisions() == {"name": M.name, "backend": "levels", "levels_per_apply": 82}


def test_engines_account_for_the_program_sweeps(trefethen_2000):
    M = AsyncSweepPreconditioner(trefethen_2000, sweeps=3, config=AsyncConfig(block_size=256))
    r = np.ones(trefethen_2000.shape[0])
    for _ in range(2):
        M(r)
    # Zero-guess check plus two applications, 3 sweeps each per engine.
    for engine in (M._forward, M._reverse):
        assert engine.sweep_index == 9
        assert np.all(engine.update_counts == 9)


def test_second_preconditioner_reuses_the_program(fv3, monkeypatch):
    config = AsyncConfig(local_iterations=2, block_size=256)
    view = BlockRowView(fv3, block_size=256)
    first = AsyncSweepPreconditioner(fv3, sweeps=2, config=config, view=view)
    plan = compile_sweep_plan(view)
    cached = dict(plan._programs)

    runs = []
    run = LevelProgram.run

    def counted_run(self, x, b):
        runs.append(self)
        return run(self, x, b)

    def no_compile(*args, **kwargs):
        raise AssertionError("the program was compiled twice")

    monkeypatch.setattr(LevelProgram, "run", counted_run)
    monkeypatch.setattr(LevelProgram, "__init__", no_compile)
    second = AsyncSweepPreconditioner(fv3, sweeps=2, config=config, view=view)
    assert second._program is first._program
    assert plan._programs == cached
    # The zero-guess linearity check ran through the shared program.
    assert runs == [first._program]


def test_non_finite_matrix_rejected_before_the_engines(fv3):
    A = fv3.copy()
    A.data[11] = np.nan
    with pytest.raises(ValueError, match="^A has non-finite"):
        AsyncSweepPreconditioner(A, sweeps=2)
