"""Execution back-ends: the join/grouping kernels (dense or sorted, picked
from the key range), the vectorized batch pipeline and the Volcano
tuple-at-a-time interpreter."""
