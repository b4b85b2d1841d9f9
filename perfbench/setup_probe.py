"""One timed set-up, run by run.py in a fresh interpreter.

Prints ``ready <speed> <overhead>`` once set-up is done: the host's mean
speed relative to hostspeed.REFERENCE_S over the set-up, and the wall
seconds the calibration samples took, so that run.py can normalize the
spawn-to-ready time it measures.
"""

import hostspeed

sampler = hostspeed.Sampler()
sampler.start()
import workloads  # noqa: E402

workloads.setup()
sampler.stop()
print("ready", sampler.mean_speed(), sum(sampler.walls), flush=True)
