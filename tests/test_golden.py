"""Byte identity of whole runs: the sha256 of `dumps(complex)` +
`repr(barcode)` on a small fixed corpus, pinned to recorded values.

A change that only makes the pipeline faster must leave every digest as it
is.  A change that alters a complex or a barcode on purpose records the new
digest here and says why.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from test_relative_lift import X1_LINE, X2_LINE

from reldelcech import cli
from reldelcech.filtered_complex import dumps
from reldelcech.geometry import PointCloud
from reldelcech.persistence import barcode
from reldelcech.relative_lift import build_pipeline

RING = [(5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0)]
RING += [(a * x, b * y) for x, y in ((3.0, 4.0), (4.0, 3.0)) for a in (-1, 1) for b in (-1, 1)]


def _grid(*shape):
    return [tuple(float(c) for c in p) for p in itertools.product(*map(range, shape))]


def _uniform(seed: int, n: int, d: int):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)).tolist()
    return pts, sorted(rng.choice(n, n // 4, replace=False).tolist())


def _half(pts, seed: int):
    return pts, sorted(np.random.default_rng(seed).choice(len(pts), len(pts) // 2, replace=False).tolist())


# (points, indices of X1)
CORPUS = {
    "uniform2d-a": _uniform(1, 120, 2),
    "uniform2d-b": _uniform(2, 90, 2),
    "uniform3d-a": _uniform(3, 50, 3),
    "uniform3d-b": _uniform(4, 40, 3),
    "grid12x12": _half(_grid(12, 12), 5),
    "grid4x4x4": _half(_grid(4, 4, 4), 6),
    "grid3x4": (_grid(3, 4), [0, 4, 5, 6]),
    "ring": (RING, [0, 2, 5, 7, 9]),
    # The paths that check del(Z) without wrapping it: an absolute run
    # (A empty), A = X, and two crossing lines (no cloud spans a slab).
    "uniform2d-a-absolute": (_uniform(1, 120, 2)[0], []),
    "grid4x4x4-all": (_grid(4, 4, 4), list(range(64))),
    "crossing-lines": (X1_LINE + X2_LINE, list(range(len(X1_LINE)))),
}

GOLDEN = {
    "crossing-lines": "1712fd6cb2d4a8c73cc16f85c1ca6fd8d4da2de59e790bdba118eb75e1c25c5d",
    "grid12x12": "c5be0abc8f5be15e4f244d73b25fb9404e4ba43a89bae9fa980b7cfacbcf23f8",
    "grid3x4": "7198873d2e62f74048ab2f635e3345b9b3f2ea642ab7a6b69cb76482af89ac46",
    "grid4x4x4": "57205ac28cb91e111ca4390d8c2b530d7275e90aa868e3fde9bd69c094bd20e5",
    "grid4x4x4-all": "2f670faa39708c3a07b74f4a4630016f780e7864da8a312732e6e52064a6962d",
    "ring": "56e3cb2beb03cd36294a39ee14fa45bba8063bd3c1f239def75d8c124d347d3a",
    "uniform2d-a": "964b32667cea42f98d65aeb7b705bd138cf0954b27ff88850683c98b1ea35605",
    "uniform2d-a-absolute": "7595f3b88046480c71d625479a86425ef976425fa23737338c00135751078b7a",
    "uniform2d-b": "3ef1e3151f6ded55e53e7ee7d20a0c64fd70fac8a95c008e7f7703c3cc969802",
    "uniform3d-a": "26eb8efa310f1cd33709a15109aaed174b8386b55b698e9085b2636863684e39",
    "uniform3d-b": "9412c06213554403a0974f1ec0832d53d1e25129a33f684a89f6cef144c43fd7",
}


def digest(points, a) -> str:
    x = PointCloud([tuple(p) for p in points])
    pipe = build_pipeline(*cli.split_pair(x, set(a)))
    bc = barcode(pipe.complex, relative=True, max_dim=x.dimension)
    return hashlib.sha256((dumps(pipe.complex) + repr(bc)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_run_is_byte_identical(name):
    assert digest(*CORPUS[name]) == GOLDEN[name]
