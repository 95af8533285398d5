"""Reference implementations the differential batteries compare ``src`` against.

Nothing here ships: these are the per-octant scalar forms of kernels whose
single ``src`` body is the batch one.
"""
