"""gemi: graph-based recommendation for multi-label annotated panels.

Builds latent item graphs from precomputed embeddings, trains graph
convolutional classifiers (GCN, GAE, VGAE) under class imbalance, and
evaluates label-conditioned top-K recommendation quality against
synthetic or real user preference profiles.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
