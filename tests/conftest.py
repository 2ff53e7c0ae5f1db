import pytest
import scipy


@pytest.fixture
def scipy_blas() -> str:
    """The BLAS behind scipy's triangular solves, for the failure messages of
    tests that hold the full-space filter's diagonal route to the dense one bit
    for bit. The two agree where trsm multiplies by the reciprocal of each
    pivot, as OpenBLAS does; a BLAS that divides (the reference dtrsm does) can
    move the last bits."""
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # scipy before 1.11 prints its config only
        return "unknown (scipy gives no config dict)"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
