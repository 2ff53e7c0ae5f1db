import numpy as np
import pytest


@pytest.fixture
def numpy_blas() -> str:
    """The BLAS numpy loaded, for the failure messages of tests that hold the
    full-space filter's diagonal route to the dense one bit for bit. The dense
    route applies the inverse Cholesky factor by matrix products; the two agree
    where the BLAS computes L^{-1} of a diagonal L as the correctly rounded
    1/sqrt(a) and adds a product with an exact zero exactly, as OpenBLAS does.
    Other builds (MKL, Accelerate) are unchecked."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return "unknown (numpy gives no config dict)"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
