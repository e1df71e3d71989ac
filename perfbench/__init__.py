"""Performance benchmark of the noisymarkov package; see README.md."""
