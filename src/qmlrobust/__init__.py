"""Robustness benchmark for a classical MLP vs a simulated variational
quantum classifier under seeded Gaussian input noise."""

__version__ = "0.1.0"
