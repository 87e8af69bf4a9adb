"""Amorphous translational packings of convex bodies in arbitrary norms.

Submodules: :mod:`bodies` (gauge/support representations),
:mod:`volumetrics` (Monte Carlo volumes, overlap profiles, projection
bodies), :mod:`checks` (numerical verifiers), :mod:`packing` (Poisson
sampling, intersection graphs, pruning), :mod:`indset` (independent-set
extraction and packing verification), :mod:`harness` (configs, pipeline,
sweeps).
"""

from .bodies import (
    ConvexBody,
    body_from_spec,
    body_to_spec,
    closed_form_volume,
    cube,
    hpolytope,
    lp_ball,
    normalize_to_unit_volume,
    sample_uniform,
    simplex_difference,
)
from .harness import ExperimentConfig, default_config, run_pipeline, sweep, verify_suite
from .indset import PackingResult, greedy_independent_set, verify_packing
from .packing import PackingGraph, TorusDomain, build_graph, prune, sample_poisson
from .volumetrics import (
    IkProfile,
    McEstimate,
    estimate_ik,
    intersection_volume,
    mc_volume,
    polar_proj_ball_volume,
    proj_body_support,
)

__all__ = [
    "ConvexBody",
    "ExperimentConfig",
    "IkProfile",
    "McEstimate",
    "PackingGraph",
    "PackingResult",
    "TorusDomain",
    "body_from_spec",
    "body_to_spec",
    "build_graph",
    "closed_form_volume",
    "cube",
    "default_config",
    "estimate_ik",
    "greedy_independent_set",
    "hpolytope",
    "intersection_volume",
    "lp_ball",
    "mc_volume",
    "normalize_to_unit_volume",
    "polar_proj_ball_volume",
    "proj_body_support",
    "prune",
    "run_pipeline",
    "sample_poisson",
    "sample_uniform",
    "simplex_difference",
    "sweep",
    "verify_packing",
    "verify_suite",
]
