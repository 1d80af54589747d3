"""The scipy reference of the transport assembly, for the tests."""

import scipy.sparse as sp

from rdasim.grid import _transport_entries


def assemble_transport(grid, coeff, bc, t=0.0):
    """Block-diagonal transport operator of every species, as one CSR matrix.

    scipy's COO-to-CSR conversion sums the entries of `_transport_entries`,
    duplicates in entry order: the oracle that the property tests hold the
    package's own summation (`integrator._csc_arrays`) and stencils to.
    """
    rows, cols, vals = _transport_entries(grid, coeff, bc, t)
    size = coeff.m * grid.ncells
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
