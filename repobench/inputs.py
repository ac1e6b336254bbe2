"""Seeded input generators, one per app.

Each generator reproduces its app's ``make_input`` shapes, dtypes and
value constraints, but draws the values from the workload seed instead
of the app's fixed seed. The program then receives only these arrays,
through a copied ``Benchmark`` (see :func:`workloads.seeded_benchmark`).

Two sizes are baked into the Lime sources and stay fixed: mosaic's tile
library (``LIB_TILES`` rows lead every input) and parboil-cp's grid.
jg-crypt's key schedule is the app's fixed ``expand_key()``, and
jg-series takes only a size, so neither has anything to draw.
"""

import zlib

import numpy as np


def _rng(seed, app):
    # crc32, not hash(): str hashing is salted per process.
    return np.random.default_rng([seed, zlib.crc32(app.encode("utf-8"))])


def _uniform(rng, shape, dtype, lo, hi):
    return (rng.random(shape) * (hi - lo) + lo).astype(dtype)


def _mosaic(rng, scale):
    from repro.apps.mosaic import LIB_TILES

    ref_tiles = max(32, int(160 * scale))
    tiles = rng.integers(0, 256, size=(LIB_TILES + ref_tiles, 16))
    return [tiles.astype(np.int32)]


def _parboil_cp(rng, scale):
    from repro.apps.parboil_cp import GRID_SPACING, GRID_W

    natoms = max(32, int(128 * scale))
    atoms = _uniform(rng, (natoms, 4), np.float32, 0.0, GRID_W * GRID_SPACING)
    atoms[:, 2] = atoms[:, 2] * 0.5 + 0.2  # z offset keeps r > 0
    atoms[:, 3] = atoms[:, 3] * 2.0 - 1.0  # charges in [-1, 1]
    return [atoms]


def _nbody(dtype):
    def generate(rng, scale):
        n = max(16, int(192 * scale))
        particles = _uniform(rng, (n, 4), dtype, -1.0, 1.0)
        particles[:, 3] = np.abs(particles[:, 3]) + 0.05  # positive masses
        return [particles]

    return generate


def _parboil_mriq(rng, scale):
    nvoxels = max(32, int(256 * scale))
    nk = max(32, int(192 * scale))
    voxels = _uniform(rng, (nvoxels, 4), np.float32, -1.0, 1.0)
    voxels[:, 3] = 0.0
    kspace = _uniform(rng, (nk, 4), np.float32, -0.5, 0.5)
    return [voxels, kspace]


def _jg_crypt(rng, scale):
    from repro.apps.jg_crypt import expand_key

    nblocks = max(64, int(1536 * scale))
    blocks = rng.integers(-128, 128, size=(nblocks, 8)).astype(np.int8)
    return [blocks, expand_key()]


def _jg_series(rng, scale):
    return [max(32, int(192 * scale))]


def _parboil_rpes(rng, scale):
    from repro.apps.parboil_rpes import QUAD_ROOTS

    n = max(64, int(384 * scale))
    table = _uniform(rng, (n, 4), np.float32, 0.0, 1.0)
    # Column 3 is the window base: keep base + QUAD_ROOTS in the table.
    limit = (n - QUAD_ROOTS - 1) * 4.0
    table[:, 3] = np.linspace(0.0, limit, n).astype(np.float32)
    return [table]


def _pipeline3(rng, scale):
    n = max(64, int(1024 * scale))
    return [_uniform(rng, (n,), np.float32, -1.0, 1.0)]


GENERATORS = {
    "mosaic": _mosaic,
    "parboil-cp": _parboil_cp,
    "nbody-single": _nbody(np.float32),
    "nbody-double": _nbody(np.float64),
    "parboil-mriq": _parboil_mriq,
    "jg-crypt": _jg_crypt,
    "jg-series-single": _jg_series,
    "jg-series-double": _jg_series,
    "parboil-rpes": _parboil_rpes,
    "pipeline3": _pipeline3,
}


def make_inputs(app, seed, scale):
    """The run() arguments (without ``steps``) for ``app``, frozen as
    the app's own ``make_input`` freezes them."""
    from repro.apps.base import freeze

    args = GENERATORS[app](_rng(seed, app), scale)
    return [freeze(a) if isinstance(a, np.ndarray) else a for a in args]
