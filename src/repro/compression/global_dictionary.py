"""The paper's simplified global-dictionary model (Section III-B).

"Dictionary compression stores a 'global' dictionary in which each
distinct value is stored once and each row has a pointer to the
dictionary." Under this model, for a single ``char(k)`` column::

    CF_D = (d * k + n * p) / (n * k) = d/n + p/k

This algorithm is the dictionary codec at index scope: :meth:`compress`
receives *all* records of the index at once and builds one dictionary
(an index sizes it as one ``[0, n]`` segment). Theorems 2 and 3 are
stated against exactly this model, which is why it is registered as a
separate algorithm rather than a parameter of the paged variant.
"""

from __future__ import annotations

from repro.compression.dictionary import DictionaryCompression


class GlobalDictionaryCompression(DictionaryCompression):
    """One index-wide dictionary per column; rows store pointers."""

    scope = "index"
    name_prefix = "global_dictionary"

    def cf_from_histogram(self, histogram, **layout) -> float:
        """The paper's closed form: ``d/n + p/k`` (general column form).

        The simplified global model ignores paging by construction, so
        the ``layout`` keywords are accepted and ignored.
        """
        from repro.core.cf_models import global_dictionary_cf

        return global_dictionary_cf(
            histogram, pointer_bytes=self._codec.pointer_bytes,
            entry_storage=self._codec.entry_storage)
