"""Variational bounds on quantum Fisher information for noisy phase estimation.

Closed-form upper bounds for phase estimation under photon loss into a
thermal environment and Gaussian phase diffusion, an independent
brute-force oracle on truncated Fock spaces that validates them, and the
spectral machinery that extends the single-parameter bounds to waveform
estimation.
"""

__version__ = "0.1.0"
