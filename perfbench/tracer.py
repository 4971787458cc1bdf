"""Span-recording wrappers installed on the package from the benchmark's files.

``Tracer.begin`` replaces each listed function on every module attribute
of the package bound to it (a function imported into five modules is
wrapped in all five), and ``end`` restores the originals, so nothing under
``src/`` changes.  Each call records a span (name, start, end, parent
span, command id) in memory.  A function the package no longer has is
skipped and reads as zero calls.

Besides spans the tracer counts exceptions leaving a wrapped function, the
(V, zeta) repeats of ``defect_spaces`` within one command, and the
floating-point operations of the LAPACK calls made while a command runs.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "isoresolvent"

# (metric name, module, attribute path) for every traced function.
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("cli.parse_scenario", "cli", "parse_scenario"),
    ("cli.run_command", "cli", "run_command"),
    ("verify.run_property_suite", "verify", "run_property_suite"),
    ("gap.arc_scan", "gap", "arc_scan"),
    ("gap.build_gap_operators", "gap", "build_gap_operators"),
    ("gap.eigen_criterion", "gap", "eigen_criterion"),
    ("gap.surjectivity_criterion", "gap", "surjectivity_criterion"),
    ("resolvents.ResolventFn.at", "resolvents", "ResolventFn.at"),
    ("resolvents.chumakin", "resolvents", "chumakin"),
    ("resolvents.inin", "resolvents", "inin"),
    ("resolvents.exterior_value", "resolvents", "exterior_value"),
    ("extensions.validate_family", "extensions", "validate_family"),
    ("extensions.extend_full", "extensions", "extend_full"),
    ("extensions.orthogonal_extension", "extensions", "orthogonal_extension"),
    ("extensions.recover_parameter", "extensions", "recover_parameter"),
    ("transforms.cayley", "transforms", "cayley"),
    ("isometry.defect_spaces", "isometry", "defect_spaces"),
    ("isometry.regular_type", "isometry", "regular_type"),
    ("sampling.random_isometry", "sampling", "random_isometry"),
    ("sampling.random_parameter", "sampling", "random_parameter"),
    ("numerics.orthonormalizer", "numerics", "_mgs"),
    ("numerics.orthogonal_complement", "numerics", "orthogonal_complement"),
    ("numerics.singular_values", "numerics", "singular_values"),
    ("numerics.guarded_inverse", "numerics", "guarded_inverse"),
    ("numerics.unitary_eig", "numerics", "unitary_eig"),
)

ORTHONORMALIZER = "numerics.orthonormalizer"

# LAPACK entry points whose flops are counted, as (module, attribute).
LAPACK = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eig"),
    ("scipy.linalg", "schur"),
)

FLOPS_FORMULA = (
    "computed, not measured: real flops from argument shapes, leading-order LAPACK counts "
    "(Golub-Van Loan) times 4 for complex data; p x q with p >= q: svd values 4pq^2 - 4q^3/3, "
    "svd with vectors 4p^2q + 8pq^2 + 9q^3; qr r-only 2pq^2 - 2q^3/3, reduced twice that, "
    "complete r-only plus 4p^2q - 4pq^2 + 4q^3/3; solve n x n with k right-hand sides "
    "2n^3/3 + 2n^2k; inv 2n^3; eigvals 10n^3; eig 25n^3; schur 25n^3; the orthonormalizer on "
    "p x q columns counts as a reduced qr and LAPACK calls inside it are not counted again; "
    "matrix products are not counted"
)


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _pq(a) -> tuple[int, int, int]:
    shape = np.shape(a)
    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0] if shape else 1, 1)
    return max(m, n), min(m, n), math.prod(shape[:-2]) if len(shape) > 2 else 1


def lapack_flops(op: str, args, kwargs) -> float:
    a = args[0] if args else next(iter(kwargs.values()))
    p, q, batch = _pq(a)
    if op == "svd":
        if _arg(args, kwargs, 2, "compute_uv", True):
            f = 4 * p * p * q + 8 * p * q * q + 9 * q**3
        else:
            f = 4 * p * q * q - 4 * q**3 / 3
    elif op == "qr":
        mode = _arg(args, kwargs, 1, "mode", "reduced")
        f = 2 * p * q * q - 2 * q**3 / 3
        if mode == "reduced":
            f *= 2
        elif mode == "complete":
            f += 4 * p * p * q - 4 * p * q * q + 4 * q**3 / 3
    elif op == "solve":
        b = _arg(args, kwargs, 1, "b", None)
        k = 1 if np.ndim(b) <= 1 else np.shape(b)[-1]
        f = 2 * p**3 / 3 + 2 * p * p * k
    elif op == "inv":
        f = 2 * p**3
    elif op == "eigvals":
        f = 10 * p**3
    else:  # eig, schur
        f = 25 * p**3
    return batch * f * (4 if np.iscomplexobj(a) else 1)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.data)
    return h.digest()


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, cmd)
        self.raised: Counter = Counter()  # (name, exception class, cmd)
        self.flops: defaultdict = defaultdict(float)  # cmd -> flops
        self.defect_calls: Counter = Counter()  # cmd -> calls
        self.defect_repeats: Counter = Counter()  # cmd -> repeated (V, zeta)
        self.missing: list[str] = []
        self.cmd = -1
        self._stack: list[int] = []
        self._orth_depth = 0
        self._seen: set = set()
        self._patches: list[tuple] = []

    # -------------------------------------------------------- installation

    def begin(self, cmd: int) -> None:
        self.cmd = cmd
        self._seen = set()
        self._install()

    def end(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()
        self._orth_depth = 0

    def _install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.missing = []
        for name, module, path in FUNCTIONS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._span_wrapper(name, original)
            if parents:
                self._patch(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        for module, attr in LAPACK:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            self._patch(owner, attr, original, self._flops_wrapper(attr, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        is_orth = name == ORTHONORMALIZER
        is_defect = name == "isometry.defect_spaces"

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            if is_orth:
                tracer._orth_depth += 1
                cols = args[0] if args else kwargs["columns"]
                tracer.flops[tracer.cmd] += lapack_flops("qr", (cols,), {})
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[(name, type(exc).__name__, tracer.cmd)] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.cmd)
                if is_orth:
                    tracer._orth_depth -= 1
                if is_defect:
                    tracer._note_defect(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _flops_wrapper(self, op: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer._orth_depth:
                tracer.flops[tracer.cmd] += lapack_flops(op, args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _note_defect(self, args, kwargs) -> None:
        v = args[0] if args else kwargs["v"]
        zeta = args[1] if len(args) > 1 else kwargs["zeta"]
        key = (_digest(v.domain_basis, v.image_basis), repr(complex(zeta)))
        self.defect_calls[self.cmd] += 1
        if key in self._seen:
            self.defect_repeats[self.cmd] += 1
        self._seen.add(key)

    # ------------------------------------------------------------ analysis

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cmd in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (name, start, end, parent, cmd) in enumerate(self.spans)]

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,cmd\n")
            for name, start, end, parent, cmd in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{cmd}\n")
