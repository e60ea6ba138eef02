"""Sanity checks on the package's public API surface."""

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ names missing attribute {name}"


def test_version_is_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_quickstart_docstring_flow():
    """The module docstring's quickstart must actually work."""
    result = repro.run_experiment(
        repro.core_scale(flows=1000, cca="newreno", scale=500,
                         duration=3.0, warmup=1.0)
    )
    assert result.summary()
    assert 0 < result.jfi() <= 1.0


def test_model_functions_exported():
    assert repro.mathis_throughput(1448, 0.02, 0.01) > 0
    assert repro.padhye_throughput(1448, 0.02, 0.01) > 0
    assert repro.cubic_throughput(1448, 0.02, 0.01) > 0


def test_make_cca_exported():
    assert repro.make_cca("cubic").name == "cubic"
