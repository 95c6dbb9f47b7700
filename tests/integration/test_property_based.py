"""A compiled program's cell count does not depend on its length
parameter.  The generated programs themselves run through the oracle
(``test_oracle.py``)."""

from repro.compiler import compile_program

EXAMPLE = (
    "Y : array[real] := forall i in [1, m] construct A[i-1] + A[i+1] endall"
)


def test_length_parametricity():
    """Cell count never depends on m; only patterns and FIFO depths
    could, and for this program even those are m-independent."""
    cells = compile_program(EXAMPLE, params={"m": 40}).cell_count
    for m in range(1, 31):
        assert compile_program(EXAMPLE, params={"m": m}).cell_count == cells, m
