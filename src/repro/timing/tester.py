"""Kernel tester (section 2.1).

"... the tester to ensure that the answer is correct (unnecessary in
theory, but useful in practice)."

Runs the compiled kernel in the functional interpreter against the
NumPy reference on several problem sizes (chosen to hit remainder-loop
corner cases) and random data.  Element-wise kernels must match exactly
(the interpreter rounds at every step like the hardware would);
reductions get an association-tolerant relative bound because SIMD and
accumulator expansion legitimately reorder the adds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..errors import KernelTestFailure
from ..fko.pipeline import CompiledKernel
from ..ir import Function
from ..kernels.blas1 import KernelSpec, reference
from ..machine.interp import Program, run_function

DEFAULT_SIZES = (0, 1, 2, 3, 7, 8, 16, 33, 100, 257)


def _tolerance(spec: KernelSpec, n: int) -> float:
    eps = 1.2e-7 if spec.precision == "s" else 2.3e-16
    return eps * max(4, n) * 8


def _reduction_close(got: np.ndarray, want: np.ndarray,
                     tol: float) -> bool:
    """Association-tolerant comparison for reduction-fed arrays: a
    relative bound with a unit floor on the denominator (mirroring the
    scalar-return check), because a dot-product element can cancel to
    near zero while its absolute rounding error stays proportional to
    the summand magnitudes.  NaNs never compare close."""
    with np.errstate(invalid="ignore"):
        ok = np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))
    return bool(np.all(ok))


def _first_mismatch(got: np.ndarray, want: np.ndarray) -> int:
    """Index of the first bitwise difference (arrays are known unequal)."""
    ib = np.dtype(f"i{got.dtype.itemsize}")
    diff = np.nonzero(got.view(ib) != want.view(ib))[0]
    return int(diff[0]) if len(diff) else 0


def make_inputs(spec: KernelSpec, n: int, rng: np.random.Generator):
    arrays = {v: rng.standard_normal(max(spec.arg_elems(v, n), 1))
              .astype(spec.dtype) for v in spec.array_args}
    scalars: Dict[str, float] = {"N": n}
    for s in spec.scalar_args:
        scalars[s] = float(rng.standard_normal())
    return arrays, scalars


def ref_views(spec: KernelSpec, arrays: Dict[str, np.ndarray],
              n: int) -> Dict[str, np.ndarray]:
    """Per-argument views of exactly the elements the kernel owns at
    size ``n`` (arrays are padded to length >= 1 for the allocator;
    matrix arguments hold ``n*n`` elements)."""
    return {k: v[:spec.arg_elems(k, n)] for k, v in arrays.items()}


def test_function(fn: Function, spec: KernelSpec,
                  sizes: Optional[Sequence[int]] = None,
                  seed: int = 0xC0FFEE,
                  trials_per_size: int = 1) -> None:
    """Raise :class:`KernelTestFailure` if ``fn`` disagrees with the
    reference on any size/trial."""
    if sizes is None:
        sizes = spec.test_sizes or DEFAULT_SIZES
    rng = np.random.default_rng(seed)
    # one decode serves every size; it dies with this call
    program = Program(fn)
    for n in sizes:
        for _ in range(trials_per_size):
            arrays, scalars = make_inputs(spec, n, rng)
            got_arrays = {k: v.copy() for k, v in arrays.items()}
            ref_arrays = {k: v.copy() for k, v in arrays.items()}

            fscalars = {k: v for k, v in scalars.items() if k != "N"}
            result = run_function(fn, got_arrays, {"N": n, **fscalars},
                                  program=program)
            # the reference must see exactly the elements each argument
            # owns at size n (arrays are padded to length >= 1 for the
            # interpreter's allocator; matrices hold n*n elements)
            ref = reference(spec, ref_views(spec, ref_arrays, n), fscalars)

            # vector outputs: element-wise outputs must match the
            # reference bitwise (the interpreter rounds at every step,
            # so there is no legitimate source of divergence — and NaNs
            # must agree, not be masked); reduction-fed outputs get the
            # association-tolerant bound scaled by the real reduction
            # length, because SIMD/AE legitimately reorder the adds
            for name in spec.output_args:
                elems = spec.arg_elems(name, n)
                got = got_arrays[name][:elems]
                want = ref_arrays[name][:elems]
                if name in spec.reduction_outputs:
                    if not _reduction_close(got, want, _tolerance(spec, n)):
                        with np.errstate(invalid="ignore"):
                            bad = int(np.argmax(np.abs(got - want)))
                        raise KernelTestFailure(
                            f"{spec.name} N={n}: array {name}[{bad}] = "
                            f"{got[bad]!r}, expected {want[bad]!r}")
                elif got.tobytes() != want.tobytes():
                    bad = _first_mismatch(got, want)
                    raise KernelTestFailure(
                        f"{spec.name} N={n}: array {name}[{bad}] = "
                        f"{got[bad]!r}, expected {want[bad]!r} "
                        f"(element-wise outputs must match bitwise)")

            # scalar result: a kernel that promises a return value and
            # produces none is broken — never coerce to 0.0, which would
            # silently pass whenever the reference is near zero
            if spec.returns is not None and result.ret is None:
                raise KernelTestFailure(
                    f"{spec.name} N={n}: kernel returned nothing, "
                    f"expected {ref!r}")
            if spec.returns == "int":
                if int(result.ret) != int(ref):
                    raise KernelTestFailure(
                        f"{spec.name} N={n}: returned index {result.ret}, "
                        f"expected {ref}")
            elif spec.returns is not None:
                got = float(result.ret)
                tol = _tolerance(spec, n)
                denom = max(1.0, abs(ref))
                if not abs(got - ref) / denom <= tol:
                    raise KernelTestFailure(
                        f"{spec.name} N={n}: returned {got!r}, expected "
                        f"{ref!r} (rel err {abs(got-ref)/denom:.3e})")


def test_kernel(compiled: CompiledKernel, spec: KernelSpec,
                sizes: Optional[Sequence[int]] = None,
                seed: int = 0xC0FFEE) -> None:
    test_function(compiled.fn, spec, sizes=sizes, seed=seed)
