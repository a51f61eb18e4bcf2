"""Non-convex low-rank recovery: phase retrieval, phase synchronization and
factorized unit-diagonal SDPs, with benchmark harnesses."""
