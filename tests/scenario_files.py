"""Write a scenario as a JSON file, in the layout of ``scenarios/*.json``:
what the tests that load scenario files write (the package only reads
them, through ``ScenarioSpec.from_json``).  :data:`OLD_RADAR_BLOCK` holds
the radar keys older scenario files carried beside the frame timing."""
import json

# The ten chirp and array keys every bundled scenario file set under
# ``radar``, as written there; each is now a class constant of
# ``RadarConfig`` holding that value, and a file that sets one is refused.
OLD_RADAR_BLOCK = {
    "adc_interval": 3.90625e-07,
    "bandwidth": 500000000.0,
    "carrier_freq": 77000000000.0,
    "chirp_duration": 5e-05,
    "num_rx": 4,
    "num_tx": 2,
    "pri": 6e-05,
    "rx_spacing": 0.0019467042727272727,
    "samples_per_chirp": 128,
    "tx_spacing": 0.0038934085454545454,
}


def write_spec(spec, path) -> None:
    """``spec.to_dict()`` as sorted, two-space-indented JSON and a final
    newline."""
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
