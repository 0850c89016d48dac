"""The shared candidate-pipeline subsystem.

Every filtering join in this repository decomposes into the same stages:

1. **signature indexing** -- segments / q-grams / prefix tokens mapped to
   the record ids containing them (:class:`PostingsIndex`, backed by
   :class:`SignatureInterner` dense ids and ``array`` postings);
2. **a filter cascade** -- cheap necessary conditions (length window,
   count filter, position filter) pruning proposed candidates in
   short-circuit order, with per-filter counters (:class:`FilterCascade`,
   :class:`HistogramBoundFilter`);
3. **de-duplication** -- each unordered pair reaches verification at most
   once (:class:`CandidateBuffer` bitsets);
4. **batched verification** -- one (or a few) bulk
   :func:`repro.accel.verify_pairs` dispatches instead of per-pair kernel
   calls (:func:`verify_ld_pairs`, :func:`verify_nld_pairs`).

The join layers (``repro.joins``, ``repro.tsj.jobs``) are thin wirings of
these pieces; ``repro.candidates.reference`` preserves the pre-overhaul
dict-based generators as the equivalence/bench oracle.
"""

from repro.candidates.cascade import (
    CASCADE_COUNTERS,
    COUNTER_CANDIDATES,
    COUNTER_PRUNED_COUNT,
    COUNTER_PRUNED_LENGTH,
    COUNTER_PRUNED_POSITION,
    COUNTER_VERIFIED,
    FilterCascade,
    HistogramBoundFilter,
    encode_histogram,
    new_counters,
)
from repro.candidates.dedup import CandidateBuffer, unordered
from repro.candidates.interning import (
    PostingsIndex,
    SignatureInterner,
    pack_posting,
    unpack_posting,
)
from repro.candidates.verify import verify_ld_pairs, verify_nld_pairs

__all__ = [
    "CASCADE_COUNTERS",
    "COUNTER_CANDIDATES",
    "COUNTER_PRUNED_COUNT",
    "COUNTER_PRUNED_LENGTH",
    "COUNTER_PRUNED_POSITION",
    "COUNTER_VERIFIED",
    "CandidateBuffer",
    "FilterCascade",
    "HistogramBoundFilter",
    "PostingsIndex",
    "SignatureInterner",
    "encode_histogram",
    "new_counters",
    "pack_posting",
    "unordered",
    "unpack_posting",
    "verify_ld_pairs",
    "verify_nld_pairs",
]
