"""Write a scenario as a JSON file, in the layout of ``scenarios/*.json``:
what the tests that load scenario files write (the package only reads
them, through ``ScenarioSpec.from_json``)."""
import json


def write_spec(spec, path) -> None:
    """``spec.to_dict()`` as sorted, two-space-indented JSON and a final
    newline."""
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
