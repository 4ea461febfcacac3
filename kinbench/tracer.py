"""Traced mode: wrap fcdbn's public functions from outside the program.

Every public function defined in an fcdbn module is wrapped under every
module name it is bound to (``kvrl.encode`` as well as ``deepnet.encode``),
so a call is seen whichever import path the caller used. Each wrapper
records calls, inclusive time and self time (inclusive minus the time of
wrapped calls nested inside it, per thread), both per defining function
("origin", e.g. ``deepnet.encode``) and per binding (``kvrl`` calling
``deepnet.encode``). A few origins also get an argument or result hook for
the counts the per-layer metrics need. Inclusive times of calls made on
worker threads are summed, so under ``FCDBN_THREADS > 1`` they can exceed
wall time.

A metric whose function or binding no longer exists, or whose hook reads a
field that no longer exists, is reported absent instead of failing the run.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import threading
import time
from contextlib import contextmanager


class Absent(Exception):
    """The traced name a metric depends on does not exist."""


class _Stat:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


def _rows(v):
    shape = getattr(v, "shape", None)
    if shape is None:
        return 1
    return shape[0] if len(shape) == 2 else 1


PACKAGE = "fcdbn"


class Tracer:
    def __init__(self):
        self.origins = set()      # "module.func" of every wrapped function
        self.bindings = set()     # (caller module, origin) pairs wrapped
        self._undo = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._paused = False
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        with self._lock:
            self.by_origin = {}
            self.by_binding = {}
            self.extra = {}        # (origin, key) -> accumulated number
            self.distinct = {}     # origin -> set of content digests
            self.hook_errors = {}  # origin -> message

    def _add(self, origin, key, value):
        k = (origin, key)
        self.extra[k] = self.extra.get(k, 0) + value

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, origin, caller, hook):
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]  # time of wrapped calls nested in this one
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            with tracer._lock:
                for table, key in ((tracer.by_origin, origin),
                                   (tracer.by_binding, (caller, origin))):
                    st = table.get(key)
                    if st is None:
                        st = table[key] = _Stat()
                    st.calls += 1
                    st.incl += elapsed
                    st.self_s += elapsed - frame[0]
                if hook is not None and origin not in tracer.hook_errors:
                    try:
                        bound = signature.bind(*args, **kwargs).arguments
                        hook(tracer, origin, bound, result, elapsed)
                    except (AttributeError, IndexError, KeyError, TypeError,
                            ValueError, OSError) as exc:
                        tracer.hook_errors[origin] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for mod_name, mod in sorted(modules.items()):
            caller = mod_name.rsplit(".", 1)[-1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if home not in modules or obj.__name__.startswith("_"):
                    continue
                origin = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                wrapper = self._wrap(obj, origin, caller, HOOKS.get(origin))
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, obj))
                self.origins.add(origin)
                self.bindings.add((caller, origin))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # -- reading ------------------------------------------------------------

    def stat(self, origin, caller=None):
        """(calls, inclusive s, self s); Absent if the name was not wrapped."""
        if caller is None:
            if origin not in self.origins:
                raise Absent(origin)
            st = self.by_origin.get(origin)
        else:
            if (caller, origin) not in self.bindings:
                raise Absent(f"{origin} bound in {caller}")
            st = self.by_binding.get((caller, origin))
        return (0, 0.0, 0.0) if st is None else (st.calls, st.incl, st.self_s)

    def hooked(self, origin):
        """Raise Absent unless ``origin`` is wrapped and its hook worked."""
        if origin not in self.origins:
            raise Absent(origin)
        if origin in self.hook_errors:
            raise Absent(f"{origin} hook: {self.hook_errors[origin]}")

    def extra_value(self, origin, key):
        self.hooked(origin)
        return self.extra.get((origin, key), 0)

    def table(self):
        """Every origin and binding, for the trace report file."""
        return {
            "origins": {k: {"calls": s.calls, "incl_s": s.incl,
                            "self_s": s.self_s}
                        for k, s in sorted(self.by_origin.items())},
            "bindings": {f"{c}->{o}": {"calls": s.calls, "incl_s": s.incl}
                         for (c, o), s in sorted(self.by_binding.items())},
            "hook_errors": dict(self.hook_errors),
        }


# -- hooks: counts read from public arguments and results -------------------

def _hook_cd_train(tr, origin, a, result, elapsed):
    kind = "filtered" if a["layer"].n_filters > 0 else "plain"
    tr._add(origin, kind + "_s", elapsed)
    tr._add(origin, kind + "_epochs", a["cfg"].epochs)


def _hook_rows(name):
    def hook(tr, origin, a, result, elapsed):
        tr._add(origin, "rows", _rows(a[name]))
    return hook


def _hook_mlp_train(tr, origin, a, result, elapsed):
    tr._add(origin, "epochs", a["cfg"].epochs)


def _hook_encode_face(tr, origin, a, result, elapsed):
    face = a["regions"].face
    digest = hashlib.blake2b(face.tobytes(), digest_size=16).digest()
    tr.distinct.setdefault(origin, set()).add(digest)


def _hook_save_model(tr, origin, a, result, elapsed):
    size = os.path.getsize(a["path"])
    k = (origin, "max_bytes")
    tr.extra[k] = max(tr.extra.get(k, 0), size)


def _hook_fit_gmm(tr, origin, a, result, elapsed):
    tr._add(origin, "iters", len(result.loglik_history))


def _hook_run_command(tr, origin, a, result, elapsed):
    tr._add(origin, f"{a['argv'][0]}_s", elapsed)


HOOKS = {
    "rbm.cd_train": _hook_cd_train,
    "rbm.hidden_given_visible": _hook_rows("v"),
    "deepnet.encode": _hook_rows("v"),
    "deepnet.mlp_train": _hook_mlp_train,
    "kvrl.encode_face": _hook_encode_face,
    "storage.save_model": _hook_save_model,
    "fusion.fit_gmm": _hook_fit_gmm,
    "cli.run_command": _hook_run_command,
}


# -- the per-layer metrics ----------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _calls(origin, caller=None):
    return lambda tr: tr.stat(origin, caller)[0]


def _incl(origin):
    return lambda tr: tr.stat(origin)[1]


def _extra(origin, key):
    return lambda tr: tr.extra_value(origin, key)


def _per(origin, key, per_key):
    return lambda tr: _ratio(tr.extra_value(origin, key),
                             tr.extra_value(origin, per_key))


def _rows_per_call(origin):
    return lambda tr: _ratio(tr.extra_value(origin, "rows"),
                             tr.stat(origin)[0])


def _mlp_epoch_s(tr):
    return _ratio(tr.stat("deepnet.mlp_train")[1],
                  tr.extra_value("deepnet.mlp_train", "epochs"))


def _distinct_ratio(tr):
    tr.hooked("kvrl.encode_face")
    calls = tr.stat("kvrl.encode_face")[0]
    return _ratio(len(tr.distinct.get("kvrl.encode_face", ())), calls)


def _model_bytes(tr):
    return tr.extra_value("storage.save_model", "max_bytes")


def _cli(command):
    return _extra("cli.run_command", f"{command}_s")


# name -> (unit, better, phase, reader). Phase "setup" metrics are read
# from the traced set-up, "job" metrics from the traced job round.
PER_LAYER = {
    "rbm.cd_train.filtered_s": ("s", "lower", "job", _extra("rbm.cd_train", "filtered_s")),
    "rbm.cd_train.filtered_epoch_s": ("s", "lower", "job",
                                      _per("rbm.cd_train", "filtered_s", "filtered_epochs")),
    "rbm.conv2d_same.calls": ("count", "lower", "job", _calls("core.conv2d_same", "rbm")),
    "rbm.cd_train.plain_s": ("s", "lower", "job", _extra("rbm.cd_train", "plain_s")),
    "rbm.hidden_given_visible.rows_per_call": ("rows/call", "higher", "job",
                                               _rows_per_call("rbm.hidden_given_visible")),
    "deepnet.greedy_pretrain.s": ("s", "lower", "job", _incl("deepnet.greedy_pretrain")),
    "deepnet.encode.calls": ("count", "lower", "job", _calls("deepnet.encode")),
    "deepnet.encode.rows_per_call": ("rows/call", "higher", "job",
                                     _rows_per_call("deepnet.encode")),
    "deepnet.mlp_train.s": ("s", "lower", "job", _incl("deepnet.mlp_train")),
    "deepnet.mlp_train.epoch_s": ("s", "lower", "job", _mlp_epoch_s),
    "deepnet.mlp_predict.calls": ("count", "lower", "job", _calls("deepnet.mlp_predict")),
    "deepnet.mlp_predict.s": ("s", "lower", "job", _incl("deepnet.mlp_predict")),
    "kvrl.train_kvrl.s": ("s", "lower", "job", _incl("kvrl.train_kvrl")),
    "kvrl.extract_regions.calls": ("count", "lower", "job", _calls("kvrl.extract_regions")),
    "kvrl.extract_regions.s": ("s", "lower", "job", _incl("kvrl.extract_regions")),
    "kvrl.encode_face.calls": ("count", "lower", "job", _calls("kvrl.encode_face")),
    "kvrl.encode_face.s": ("s", "lower", "job", _incl("kvrl.encode_face")),
    "kvrl.encode_face.distinct_ratio": ("ratio", "higher", "job", _distinct_ratio),
    "kvrl.kin_score.s": ("s", "lower", "job", _incl("kvrl.kin_score")),
    "storage.save_model.s": ("s", "lower", "job", _incl("storage.save_model")),
    "storage.load_model.s": ("s", "lower", "job", _incl("storage.load_model")),
    "storage.model_bytes": ("bytes", "lower", "job", _model_bytes),
    "storage.load_pgm.s": ("s", "lower", "job", _incl("storage.load_pgm")),
    "evaluation.make_folds.s": ("s", "lower", "job", _incl("evaluation.make_folds")),
    "evaluation.gen_negatives.s": ("s", "lower", "job", _incl("evaluation.gen_negatives")),
    "evaluation.roc.s": ("s", "lower", "job", _incl("evaluation.roc")),
    "fusion.fit_gmm.s": ("s", "lower", "job", _incl("fusion.fit_gmm")),
    "fusion.fit_gmm.iters": ("count", "lower", "job", _extra("fusion.fit_gmm", "iters")),
    "fusion.svm_fit.s": ("s", "lower", "job", _incl("fusion.svm_fit")),
    "fusion.boost_decision.calls": ("count", "lower", "job", _calls("fusion.boost_decision")),
    "fusion.boost_decision.s": ("s", "lower", "job", _incl("fusion.boost_decision")),
    "synth.make_kin_benchmark.s": ("s", "lower", "setup", _incl("synth.make_kin_benchmark")),
    "synth.synth_kin.s": ("s", "lower", "setup", _incl("synth.synth_kin")),
    "cli.train-kin.s": ("s", "lower", "job", _cli("train-kin")),
    "cli.eval-kin.s": ("s", "lower", "job", _cli("eval-kin")),
    "cli.encode.s": ("s", "lower", "job", _cli("encode")),
    "cli.fuse.s": ("s", "lower", "job", _cli("fuse")),
}


def read_metrics(tracer, phase):
    """{name: value} for every metric of ``phase``, and the absent names."""
    values, absent = {}, {}
    for name, (unit, _, metric_phase, reader) in PER_LAYER.items():
        if metric_phase != phase:
            continue
        try:
            values[name] = (float(reader(tracer)), unit)
        except Absent as exc:
            absent[name] = str(exc)
    return values, absent
