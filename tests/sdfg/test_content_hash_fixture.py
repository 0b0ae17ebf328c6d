"""Key stability: serialized bytes and content hashes of reference SDFGs.

Every program-cache and tuning-cache entry on disk is keyed by
``content_hash``, and the served wire carries ``sdfg_to_json`` output.
A change to how subsets, expressions or graphs render would silently
orphan every cached entry, so ``fixtures/content_hashes.json`` pins both
for a fixed set of SDFGs.  Regenerate it only when deliberately changing
the key format (and bump ``CODEGEN_VERSION`` with it):

    PYTHONPATH=src python tests/sdfg/test_content_hash_fixture.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.workloads.kernels import KERNELS

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "content_hashes.json")


NAMES = (*KERNELS, "matmul_optimized", "gemm_chain_8", "serve_scale")


def reference_sdfgs():
    """``{name: sdfg}`` for every kernel factory plus the served kernels."""
    from repro.serve.loadtest import scale_sdfg
    from repro.workloads import kernels

    out = {name: getattr(kernels, f"{name}_sdfg")() for name in KERNELS}
    out["matmul_optimized"] = kernels.optimize_matmul(kernels.matmul_sdfg())
    out["gemm_chain_8"] = kernels.gemm_chain_sdfg(8)
    out["serve_scale"] = scale_sdfg()
    return out


def wire_bytes(obj) -> bytes:
    """The body as the serve protocol puts it on the wire."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def fingerprint(sdfg) -> dict:
    from repro.sdfg.serialize import content_hash, sdfg_to_json

    return {
        "content_hash": content_hash(sdfg),
        "json_sha256": hashlib.sha256(wire_bytes(sdfg_to_json(sdfg))).hexdigest(),
    }


@pytest.fixture(scope="module")
def expected():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sdfgs():
    return reference_sdfgs()


def test_fixture_covers_every_reference_sdfg(expected, sdfgs):
    assert sorted(expected) == sorted(sdfgs) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_serialized_bytes_and_content_hash_are_stable(name, expected, sdfgs):
    assert fingerprint(sdfgs[name]) == expected[name]


@pytest.mark.parametrize("name", NAMES)
def test_decoded_body_keeps_the_key(name, expected, sdfgs):
    """The worker's path: decode the wire body, then hash and serialize."""
    from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json

    body = json.loads(wire_bytes(sdfg_to_json(sdfgs[name])))
    assert fingerprint(sdfg_from_json(body)) == expected[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    table = {name: fingerprint(s) for name, s in sorted(reference_sdfgs().items())}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
