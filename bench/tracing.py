"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program: while a Tracer is installed it
replaces selected functions in the program's module namespaces with
wrappers that record a span (name, start, end, parent span, op id) and a
few counts taken from arguments and return values. Because the program's
own modules look these names up at call time, calls made inside the
program (``main`` calling ``parse_subgraph``, ``serialize_task_tree``
calling ``verify_task_tree``) become child spans, which gives self time
per layer.
"""

import time

# Span names of the layers the benchmark reports, one per public function.
LAYERS = (
    "formats.parse_subgraph", "formats.parse_kitchen", "core.from_units",
    "formats.serialize_graph", "cli.main", "cli.resolve_goal", "retrieval.ids",
    "retrieval.h1", "retrieval.h2", "core.verify_task_tree", "formats.serialize_task_tree",
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent span index, op id, counts]
        self.spans = []
        self.op = None
        self._stack = []
        self._targets = []
        self._saved = []

    def target(self, owner, attr, name, counts=None):
        """Register owner.attr to be wrapped; name may be a function of the call's args."""
        self._targets.append((owner, attr, name, counts))

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, counts in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, counts))
            else:
                replacement = self._wrap(original, name, counts)
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - child[i] for i, span in enumerate(self.spans)]

    def export(self):
        """Spans as JSON-ready records, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "op": op, "counts": counts}
            for name, start, end, parent, op, counts in self.spans
        ]
