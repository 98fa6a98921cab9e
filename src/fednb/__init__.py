"""Governance-regularized federated Naive Bayes simulation framework."""

__version__ = "0.1.0"
