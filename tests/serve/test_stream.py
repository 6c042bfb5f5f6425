"""JSON-lines job streams: parsing, overrides, end-to-end driving."""

import numpy as np
import pytest

from repro.serve import JobStreamError, SolveService, parse_job, run_job_stream


def _loader(small_spd):
    def load(spec):
        assert spec == "toy"
        return small_spd

    return load


def test_parse_job_overrides(small_spd):
    service = SolveService()
    req = parse_job(
        {
            "matrix": "toy",
            "rhs": "random",
            "id": "j1",
            "priority": 2,
            "timeout": 5,
            "seed": 7,
            "tol": 1e-6,
            "maxiter": 50,
            "local_iterations": 3,
            "block_size": 16,
        },
        service,
        load_matrix=_loader(small_spd),
    )
    assert req.request_id == "j1" and req.priority == 2 and req.seed == 7
    assert req.stopping.tol == 1e-6 and req.stopping.maxiter == 50
    assert req.config.local_iterations == 3 and req.config.block_size == 16
    # Unspecified knobs inherit the service defaults.
    assert req.config.order == service.config.order
    assert req.b.shape == (60,)


def test_parse_job_defaults_fall_through(small_spd):
    service = SolveService()
    req = parse_job({"matrix": "toy"}, service, load_matrix=_loader(small_spd))
    assert req.config is None and req.stopping is None  # service defaults apply
    assert np.array_equal(req.b, small_spd.matvec(np.ones(60)))


def test_parse_job_explicit_rhs(small_spd):
    service = SolveService()
    req = parse_job(
        {"matrix": "toy", "rhs": [1.0] * 60}, service, load_matrix=_loader(small_spd)
    )
    assert np.array_equal(req.b, np.ones(60))


@pytest.mark.parametrize(
    "obj, match",
    [
        ({"rhs": "ones"}, "matrix"),
        ({"matrix": "toy", "typo_key": 1}, "unknown job keys"),
        ({"matrix": "toy", "local_iterations": 0}, "local_iterations"),
    ],
)
def test_parse_job_errors(small_spd, obj, match):
    service = SolveService()
    with pytest.raises(JobStreamError, match=match):
        parse_job(obj, service, load_matrix=_loader(small_spd))


def test_run_job_stream_end_to_end(small_spd):
    service = SolveService()
    lines = [
        '{"matrix": "toy", "id": "a", "seed": 0}',
        "",
        "# a comment",
        '{"matrix": "toy", "id": "b", "seed": 1}',
    ]
    emitted = []
    responses = run_job_stream(
        lines, service, emit=emitted.append, load_matrix=_loader(small_spd)
    )
    assert [r.request_id for r in responses] == ["a", "b"]
    assert emitted == responses
    assert all(r.completed and r.batch_size == 2 for r in responses)
    # One load, one matrix object: both jobs shared the cache entry.
    assert service.stats()["cache"]["misses"] == 1


def test_run_job_stream_bad_line_reports_lineno(small_spd):
    service = SolveService()
    with pytest.raises(JobStreamError, match="line 2"):
        run_job_stream(
            ['{"matrix": "toy"}', "{not json"],
            service,
            load_matrix=_loader(small_spd),
        )


def test_parse_job_schwarz_override(small_spd):
    service = SolveService()
    req = parse_job(
        {"matrix": "toy", "partition": "uniform:10+o2", "schwarz": "ras"},
        service,
        load_matrix=_loader(small_spd),
    )
    assert req.config.schwarz == "ras"
    assert req.config.partition == "uniform:10+o2"
    assert req.config.schwarz_overlap == 2


def test_parse_job_rejects_bad_schwarz_and_spec(small_spd):
    service = SolveService()
    with pytest.raises(JobStreamError, match="schwarz"):
        parse_job(
            {"matrix": "toy", "schwarz": "as"}, service, load_matrix=_loader(small_spd)
        )
    with pytest.raises(JobStreamError, match="overlap suffix"):
        parse_job(
            {"matrix": "toy", "partition": "uniform:4+x2"},
            service,
            load_matrix=_loader(small_spd),
        )


def test_run_job_stream_refused_system_reports_lineno(small_spd):
    service = SolveService()
    with pytest.raises(JobStreamError, match="^line 2: b has non-finite"):
        run_job_stream(
            ['{"matrix": "toy"}', '{"matrix": "toy", "rhs": [Infinity' + ", 1" * 59 + "]}"],
            service,
            load_matrix=_loader(small_spd),
        )
