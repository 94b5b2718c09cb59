"""Metamorphic invariances of the path: transformations of the data that
leave the difference-penalized problem unchanged leave the path unchanged.

Each case refits the S1, S2 and S3 training sets of seeds 0-2 under standard
and adaptive weights, with frequency terms on, and compares every grid point
with the original path:
- each factor's cluster labels, exactly, looked up by factor name;
- λ_max, within LAMBDA_RTOL relative;
- β, within BETA_RTOL·max(1, max|β|).

A point's precision report bounds its restriction violation, Δ = ‖Aθ̂‖² ≤
bound, so √bound is how far the augmented fit may state β from the exact
difference-penalized fit at that λ. That gap belongs to the problem, and the
transformations below leave the problem as it is in exact arithmetic: the
same Gram pieces summed in another order, the same blocks in another order,
or the same centred response. So the two fits share every bound, and what is
left between them is rounding, with no √bound term in the tolerance. The λ = 0
point has bound 0 and is the OLS fit, which rounding alone moves; BETA_RTOL
covers it with room (largest gap measured: 2.8e-12 relative, for y + 1000)
and stays far below the 1e-8 cluster cut, so a β within it reads the same
partition.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from catfuse.datamodel import Dataset
from catfuse.selection import CvConfig, weighted_path
from catfuse.simlab import generate, make_scenario
from catfuse.structure import extract_clusters_path

# largest measured gaps over the 18 paths of each case: λ_max 4.1e-15 (rows
# permuted), 2.0e-15 (factors reversed), 9.5e-13 (y + 1000); β 1.3e-14,
# 6.3e-15 and 2.8e-12 relative to max(1, max|β|)
LAMBDA_RTOL = 1e-11
BETA_RTOL = 1e-10

CASES = [(name, seed, adaptive) for name in ("S1", "S2", "S3") for seed in range(3)
         for adaptive in (False, True)]


@lru_cache(maxsize=None)
def _path(name: str, seed: int, adaptive: bool):
    ds = generate(make_scenario(name, seed)).train
    return ds, weighted_path(ds, CvConfig(adaptive=adaptive, use_frequency=True))


def _rows_permuted(ds: Dataset, seed: int) -> Dataset:
    perm = np.random.default_rng(seed).permutation(ds.n)
    return Dataset(ds.y[perm], ds.codes[perm], ds.schemas)


def _factors_reversed(ds: Dataset, seed: int) -> Dataset:
    return Dataset(ds.y, ds.codes[:, ::-1], ds.schemas[::-1])


def _response_shifted(ds: Dataset, seed: int) -> Dataset:
    return Dataset(ds.y + 1000.0, ds.codes, ds.schemas)


@pytest.mark.parametrize("transform", [_rows_permuted, _factors_reversed, _response_shifted])
def test_path_is_invariant(transform):
    for name, seed, adaptive in CASES:
        ds, pr = _path(name, seed, adaptive)
        moved = transform(ds, seed)
        pr2 = weighted_path(moved, CvConfig(adaptive=adaptive, use_frequency=True))
        where = (transform.__name__, name, seed, adaptive)
        assert abs(pr2.lambda_max - pr.lambda_max) <= LAMBDA_RTOL * pr.lambda_max, where
        assert len(pr2.solutions) == len(pr.solutions), where
        parts = extract_clusters_path([s.beta for s in pr.solutions], ds.schemas)
        parts2 = extract_clusters_path([s.beta for s in pr2.solutions], moved.schemas)
        for g, (sol, sol2, part, part2) in enumerate(zip(pr.solutions, pr2.solutions,
                                                         parts, parts2)):
            scale = max(1.0, max(float(np.abs(b).max()) for b in sol.beta.values()))
            for sch in ds.schemas:
                assert part2.factor(sch.name).labels == part.factor(sch.name).labels, \
                    (*where, g, sch.name)
                gap = float(np.abs(sol2.beta[sch.name] - sol.beta[sch.name]).max())
                assert gap <= BETA_RTOL * scale, (*where, g, sch.name, gap)
