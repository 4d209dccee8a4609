"""Reproduction of conf_dac_YangTSCTWTYL21: surrogate-assisted analog sizing."""

from repro.blas import pin_blas_threads

pin_blas_threads()

__all__ = [
    "analysis",
    "bench",
    "blas",
    "circuits",
    "cli_types",
    "core",
    "nn",
    "obs",
    "resilience",
    "search",
    "shard",
]
