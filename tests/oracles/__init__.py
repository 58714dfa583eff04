"""Independent reference implementations for the equivalence tests.

Slow, per-point, written for clarity rather than speed.  Nothing under
``src/`` imports them: they exist so the tests can compare the batched
production kernels against a second derivation of the same physics.
"""
