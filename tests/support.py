"""Helpers shared by the test modules."""

import numpy as np

from obil.losses import get_loss
from obil.mlp import loss_and_gradients, mc_dropout_outputs


def collect_outputs(scorer, x, m, rng):
    """Run mc_dropout_outputs with a reducer that gathers every tile's
    outputs: (plain (n,), passes (k, n)), k = m with dropout and 0 without.
    The tiles must cover the rows in order, each (k + 1, its rows)."""
    tiles = []
    mc_dropout_outputs(scorer, x, m, rng, lambda z, r: tiles.append((r, z.copy())))
    tiles.sort(key=lambda tile: tile[0].start)
    assert [r.start for r, _ in tiles[1:]] == [r.stop for r, _ in tiles[:-1]]
    assert all(z.shape[1] == r.stop - r.start for r, z in tiles)
    z = np.concatenate([z for _, z in tiles], axis=1)
    return z[-1], z[:-1]


def gradient_check(scorer, x, labels, loss_name: str, loss_weight: float = 1.0,
                   step: float = 1e-5) -> float:
    """Max relative gap between backprop and central-difference gradients."""
    loss = get_loss(loss_name)
    _, grads = loss_and_gradients(scorer, x, labels, loss, loss_weight)
    worst = 0.0
    for p, g in zip(scorer.parameters(), grads):
        flat = p.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lo_plus, _ = loss_and_gradients(scorer, x, labels, loss, loss_weight)
            flat[j] = orig - step
            lo_minus, _ = loss_and_gradients(scorer, x, labels, loss, loss_weight)
            flat[j] = orig
            fd = (lo_plus - lo_minus) / (2.0 * step)
            denom = max(abs(gflat[j]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[j] - fd) / denom)
    return worst
