"""The worker's warm path: a re-sent SDFG body is looked up by its digest
and never decoded or hashed again; every other request path behaves as
without the digest map."""

import numpy as np
import pytest

from repro.sdfg import serialize
from repro.serve import protocol
from repro.serve import worker as worker_mod
from repro.serve.loadtest import scale_sdfg
from repro.serve.worker import WorkerRuntime

N = 8


def scale_job(mult=2.0, **extra):
    job = {
        "op": "execute",
        "tenant": "t",
        "sdfg": scale_sdfg(mult).to_json(),
        "arrays": protocol.encode_arrays({"A": np.arange(N, dtype=np.float64)}),
        "symbols": {"N": N},
    }
    job.update(extra)
    return job


def result(response):
    assert response["status"] == "ok", response
    return protocol.decode_arrays(response["arrays"])["A"]


@pytest.fixture
def serialize_calls(monkeypatch):
    """Count the worker's calls into the SDFG decoder and hasher."""
    calls = {"sdfg_from_json": 0, "content_hash": 0}
    for name in calls:
        real = getattr(serialize, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(serialize, name, counted)
    return calls


def test_resent_body_is_warm_without_decode_or_hash(serialize_calls):
    rt = WorkerRuntime()
    first = rt.handle(scale_job())
    assert first["warm"] is False
    assert serialize_calls["sdfg_from_json"] >= 1
    assert serialize_calls["content_hash"] >= 1
    before = dict(serialize_calls)

    second = rt.handle(scale_job())
    assert second["warm"] is True
    assert second["program"] == first["program"]
    assert serialize_calls == before
    np.testing.assert_allclose(result(second), np.arange(N) * 2.0)


def test_body_with_another_constant_is_another_program():
    rt = WorkerRuntime()
    doubled = rt.handle(scale_job(2.0))
    tripled = rt.handle(scale_job(3.0))
    assert tripled["program"] != doubled["program"]
    assert tripled["warm"] is False
    np.testing.assert_allclose(result(tripled), np.arange(N) * 3.0)
    again = rt.handle(scale_job(2.0))
    assert again["warm"] is True and again["program"] == doubled["program"]
    np.testing.assert_allclose(result(again), np.arange(N) * 2.0)


def test_digest_maps_to_the_content_hash():
    rt = WorkerRuntime()
    job = scale_job()
    response = rt.handle(job)
    expected = serialize.content_hash(serialize.sdfg_from_json(job["sdfg"]))
    assert response["program"] == expected
    assert rt._digests == {worker_mod.body_digest(job["sdfg"]): expected}


def test_digest_map_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(worker_mod, "MAX_DIGESTS", 3)
    rt = WorkerRuntime()
    for k in range(8):
        mult = 1.0 + k
        response = rt.handle(scale_job(mult, op="compile"))
        assert response["status"] == "ok", response
        assert 1 <= len(rt._digests) <= 3
    # A body whose digest was dropped still resolves to its program.
    response = rt.handle(scale_job(1.0))
    assert response["warm"] is True
    np.testing.assert_allclose(result(response), np.arange(N) * 1.0)


def test_clear_drops_artifacts_and_digests():
    rt = WorkerRuntime()
    rt.handle(scale_job())
    assert rt._programs and rt._digests
    rt.clear()
    assert not rt._programs and not rt._digests
    assert rt.handle(scale_job())["warm"] is False


def test_execute_by_key_and_the_e203_resend():
    rt = WorkerRuntime()
    program = rt.handle(scale_job(op="compile"))["program"]
    by_key = rt.handle(dict(scale_job(), sdfg=None, program=program))
    assert by_key["warm"] is True
    np.testing.assert_allclose(result(by_key), np.arange(N) * 2.0)

    fresh = WorkerRuntime()
    missing = fresh.handle(dict(scale_job(), sdfg=None, program=program))
    assert missing["status"] == "error" and missing["code"] == "E203"
    resent = fresh.handle(scale_job(program=program))
    assert resent["warm"] is False and resent["program"] == program
    np.testing.assert_allclose(result(resent), np.arange(N) * 2.0)


@pytest.mark.parametrize("body", [{"name": "broken"}, "not an sdfg", [1, 2]])
def test_malformed_body_is_e202_and_not_remembered(body):
    rt = WorkerRuntime()
    for _ in range(2):
        response = rt.handle(dict(scale_job(), sdfg=body))
        assert response["status"] == "error" and response["code"] == "E202"
    assert rt._digests == {}
