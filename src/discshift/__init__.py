"""discshift: greedy Gershgorin disc-shift sampling for active matrix completion.

Pick the matrix entries worth observing by repeatedly right-shifting a
Gershgorin disc of the dual-graph product operator (GCS, and its block-wise
variant IGCS), then complete the matrix by solving the dual-graph regularized
linear system.
"""
