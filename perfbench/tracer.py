"""Call tracing by patching the package's module and class attributes.

Every wrapped function keeps per-function totals (calls, inclusive time of
outermost calls, self time).  Functions marked as spans also record one span
each, with its parent span, so the call tree of the coarse layers can be
written out; the hot word-calculus and field calls (millions on ex14) keep
totals only.  A layer's self time is the time its functions ran minus the
time spent in wrapped callees, so the layers' self times partition the
traced time without overlap.
"""

import time
from collections import defaultdict


class Tracer:

    def __init__(self):
        self.stack = []          # frames [name, child seconds]
        self.span_stack = []
        self.spans = []          # (id, name, parent id, start, end)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)     # outermost calls only
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._fdepth = defaultdict(int)
        self._ldepth = defaultdict(int)
        self._patched = []

    def reset(self):
        """Forget everything recorded so far; patches stay in place.  The
        wrappers hold these containers, so they are cleared, not replaced."""
        for store in (self.stack, self.span_stack, self.spans, self.calls,
                      self.incl, self.self_s, self.layer_self,
                      self.layer_incl, self.counts, self.maxima,
                      self._fdepth, self._ldepth):
            store.clear()

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr, name, layer, span=False, before=None,
             after=None, also=()):
        """Replace owner.attr (and the same object in each of ``also``).

        Hooks see the positional arguments: before(args) ahead of the call,
        after(args, result, parent) with the name of the wrapped caller.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        perf = time.perf_counter
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        calls, incl, self_s = self.calls, self.incl, self.self_s
        layer_self, layer_incl = self.layer_self, self.layer_incl
        fdepths, ldepths = self._fdepth, self._ldepth

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            fdepth, ldepth = fdepths[name], ldepths[layer]
            fdepths[name], ldepths[layer] = fdepth + 1, ldepth + 1
            sid = None
            t0 = perf()
            if span:
                sid = len(spans)
                spans.append([sid, name, span_stack[-1] if span_stack else None,
                              t0, None])
                span_stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                fdepths[name], ldepths[layer] = fdepth, ldepth
                if span:
                    span_stack.pop()
                    spans[sid][4] = t1
                calls[name] += 1
                self_s[name] += dt - frame[1]
                layer_self[layer] += dt - frame[1]
                if fdepth == 0:
                    incl[name] += dt
                if ldepth == 0:
                    layer_incl[layer] += dt
                if stack:
                    stack[-1][1] += dt
            if after:
                after(args, result, parent)
            return result

        for target in (owner,) + tuple(also):
            if target is owner or getattr(target, attr, None) is fn:
                self._patched.append((target, attr, fn))
                setattr(target, attr, wrapper)

    def unpatch(self):
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched = []
