"""In-memory span tracer for the benchmark's traced runs.

No varqfi source is edited.  install() rebinds the names that caller
modules look up at call time (for example varqfi.waveform.integrate, which
mse_bound calls) to wrappers that record one span per call, and wraps the
callables a layer receives: the integrand handed to a quadrature, the
objective handed to maximize_scalar and the raw cost handed to
minimize_raw_cq.  DensityMatrix validation is traced by wrapping the
class's __post_init__, which every construction runs.

A span holds its name, start, end, parent span, item id, whether it
raised, and one integer argument (a matrix dimension or a block key).
Spans live in flat arrays until the pass ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name, first-argument callable to trace:
#  None for no wrapping, "" to name its spans after the callable itself)
_REBINDS = (
    ("varqfi.waveform", "mse_bound_optimized", "waveform.mse_bound_optimized", None),
    ("varqfi.waveform", "mse_bound", "waveform.mse_bound", None),
    ("varqfi.waveform", "maximize_scalar", "numerics.maximize_scalar", ""),
    ("varqfi.waveform", "integrate", "numerics.integrate", ""),
    ("varqfi.waveform", "integrate_semi_infinite", "numerics.integrate_semi_infinite", ""),
    ("varqfi.numerics", "integrate", "numerics.integrate", ""),
    ("varqfi.qfi_oracle", "squeezed_probe_qfi", "qfi_oracle.squeezed_probe_qfi", None),
    ("varqfi.qfi_oracle", "lossy_thermal_channel_pure",
     "channels.lossy_thermal_channel_pure", None),
    ("varqfi.qfi_oracle", "phase_diffusion", "channels.phase_diffusion", None),
    ("varqfi.qfi_oracle", "qfi_phase_covariant", "qfi_oracle.qfi_phase_covariant", None),
    ("varqfi.qfi_oracle", "minimize_raw_cq", "qfi_oracle.minimize_raw_cq", "bounds.raw_cost"),
    ("varqfi.channels", "phase_diffusion_by_quadrature",
     "channels.phase_diffusion_by_quadrature", None),
    ("varqfi.channels", "phase_shift", "channels.phase_shift", None),
    ("varqfi.channels", "beam_splitter_apply", "fock_core.beam_splitter_apply", None),
)


def _callable_name(fn):
    """'waveform.integrand' for a closure named integrand in varqfi.waveform."""
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._block_keys = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.arg = array("q")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self._restore = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, arg_of=None, first=None):
        """fn wrapped to record a span named name around each call.

        arg_of(args) gives the span's integer argument.  first, if not
        None, traces the callable passed as the first argument too, under
        that span name, or under its own name when first is "".
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        end, raised = self.end, self.raised
        push_name, push_parent = self.name.append, self.parent.append
        push_item, push_arg = self.item.append, self.arg.append
        push_start, push_end, push_raised = self.start.append, end.append, raised.append

        def traced(*args, **kwargs):
            parent = self.current
            i = len(end)
            push_name(nid)
            push_parent(parent)
            push_item(self.item_id)
            push_arg(-1 if arg_of is None else arg_of(args))
            push_raised(0)
            push_end(0.0)
            if first is not None:
                inner = args[0]
                args = (self.span(first or _callable_name(inner), inner),) + args[1:]
            self.current = i
            push_start(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                self.current = parent

        return traced

    def _block_key(self, args):
        """Interned id of a beam-splitter call's (theta, dim_a, dim_b)."""
        key = (args[0], args[2], args[3])
        return self._block_keys.setdefault(key, len(self._block_keys))

    def install(self):
        """Rebind the traced names; uninstall() puts the originals back."""
        from varqfi import fock_core

        for module_name, attr, name, first in _REBINDS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            arg_of = self._block_key if attr == "beam_splitter_apply" else None
            setattr(module, attr, self.span(name, original, arg_of=arg_of, first=first))
            self._restore.append((module, attr, original))
        cls = fock_core.DensityMatrix
        original = cls.__post_init__
        cls.__post_init__ = self.span(
            "fock_core.DensityMatrix", original, arg_of=lambda args: args[0].dim
        )
        self._restore.append((cls, "__post_init__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "arg": np.frombuffer(self.arg, dtype=np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span, with the name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self):
        """Per-layer counts and seconds summed over all recorded spans."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        self_time = dur - children
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def is_(span, names=name):
            return names == self._name_ids.get(span, -2)

        def total(span, values=dur):
            return float(values[is_(span)].sum())

        integrate, semi = is_("numerics.integrate"), is_("numerics.integrate_semi_infinite")
        # a caller's quadrature: the semi-infinite map's inner integrate is part of it
        top = (integrate & ~is_("numerics.integrate_semi_infinite", parent_name)) | semi
        numerics_own = integrate | semi | is_("numerics.transformed")
        dm = is_("fock_core.DensityMatrix")
        return {
            "numerics.integrate.calls": int(top.sum()),
            "numerics.integrate.s": float(dur[top].sum()),
            "numerics.integrate.self_s": float(self_time[numerics_own].sum()),
            "numerics.panels": int(is_("numerics.integrate", parent_name).sum()),
            "numerics.integrate.failed": int((top & (a["raised"] > 0)).sum()),
            "numerics.maximize_scalar.s": total("numerics.maximize_scalar"),
            "numerics.maximize_scalar.evals":
                int(is_("numerics.maximize_scalar", parent_name).sum()),
            "waveform.mse_bound_optimized.s": total("waveform.mse_bound_optimized"),
            "waveform.mse_bound.calls": int(is_("waveform.mse_bound").sum()),
            "waveform.mse_bound.self_s": total("waveform.mse_bound", self_time),
            "waveform.integrand.s": total("waveform.integrand"),
            "fock_core.beam_splitter_apply.calls":
                int(is_("fock_core.beam_splitter_apply").sum()),
            "fock_core.beam_splitter_apply.s": total("fock_core.beam_splitter_apply"),
            "fock_core.DensityMatrix.calls": int(dm.sum()),
            "fock_core.DensityMatrix.s": float(dur[dm].sum()),
            "fock_core.dim.max": int(a["arg"][dm].max(initial=0)),
            "fock_core.block_reuse_share": self._block_reuse_share(a),
            "channels.lossy_thermal_channel_pure.s":
                total("channels.lossy_thermal_channel_pure"),
            "channels.phase_diffusion.s": total("channels.phase_diffusion"),
            "channels.phase_diffusion_by_quadrature.s":
                total("channels.phase_diffusion_by_quadrature"),
            "channels.phase_shift.calls": int(is_("channels.phase_shift").sum()),
            "qfi_oracle.squeezed_probe_qfi.s": total("qfi_oracle.squeezed_probe_qfi"),
            "qfi_oracle.qfi_phase_covariant.s": total("qfi_oracle.qfi_phase_covariant"),
            "qfi_oracle.minimize_raw_cq.s": total("qfi_oracle.minimize_raw_cq"),
            "qfi_oracle.minimize_raw_cq.evals": int(is_("bounds.raw_cost").sum()),
            "bounds.raw_cost.s": total("bounds.raw_cost"),
        }

    def _block_reuse_share(self, a):
        """Share of items whose first beam-splitter block key an earlier item used."""
        calls = a["name"] == self._name_ids.get("fock_core.beam_splitter_apply", -2)
        items, first = np.unique(a["item"][calls], return_index=True)
        if items.size == 0:
            return 0.0
        seen = set()
        reused = 0
        for key in a["arg"][calls][np.sort(first)]:
            reused += int(key) in seen
            seen.add(int(key))
        return reused / float(np.unique(a["item"][a["item"] >= 0]).size)
