"""Eye-tracking analytics for film clips.

Pipeline stages: raw gaze ingestion and cleaning, per-frame fixation
maps, Gaussian saliency maps, saliency metrics, inter-observer
congruency, editing annotations, and annotation-conditioned statistics
and benchmarking. See the README for the CLI and file formats.
"""

__version__ = "0.1.0"
