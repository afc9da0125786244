"""Shape: a method called on an attribute typed by its constructor.

``Codec.decode_many`` charges nothing; ``Store.decode_many`` charges
through ``self.tracker``.  ``Store.decode_quiet`` calls
``self._codec.decode_many``, and ``self._codec`` is only ever a ``Codec``
(its one store is ``Codec()`` in the constructor), so the call resolves
to ``Codec.decode_many`` alone and ``orchestrate_decode``'s call outside
its phase charges nothing: no PAR008.  Resolved by method name alone, it
would also reach ``Store.decode_many`` and PAR008 would flag line 34.
"""


class Codec:
    def decode_many(self, keys):
        return [key + 1 for key in keys]


class Store:
    def __init__(self, tracker):
        self.tracker = tracker
        self._codec = Codec()

    def decode_many(self, keys):
        self.tracker.add_work(float(len(keys)))
        return self.decode_quiet(keys)

    def decode_quiet(self, keys):
        return self._codec.decode_many(keys)


def orchestrate_decode(store, keys, tracker):
    with tracker.phase("decode"):
        tracker.add_span(1.0)
    return store.decode_quiet(keys)
