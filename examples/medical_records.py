#!/usr/bin/env python
"""An integrated medical information system — the paper's introduction
motivates secure partitioning with exactly this scenario: patient and
physician records, raw test data, and information exchange between
institutions that only partially trust each other.

Principals: Patient, Clinic, Lab, Insurer.
 * The lab produces raw test values — patient-owned, lab-readable.
 * The clinic computes a diagnosis score from them (patient lets the
   clinic read tests and diagnosis).
 * The insurer must learn only a boolean eligibility flag, explicitly
   declassified by the patient's authority — never the raw tests.

Run:  python examples/medical_records.py
"""

from repro import Adversary, RuntimeImage, Session, SplitError, split_source
from repro.trust import HostDescriptor, TrustConfiguration

SOURCE = """
class MedicalRecords authority(Patient) {
  int{Patient: Lab, Clinic; ?:Lab} testA = 140;
  int{Patient: Lab, Clinic; ?:Lab} testB = 88;
  int{Patient: Clinic} diagnosisScore;
  boolean{Patient: Insurer} eligible;

  void main{?:Patient}() where authority(Patient) {
    int score = testA * 2 + testB;
    diagnosisScore = score;
    boolean flag = score < 400;
    eligible = declassify(flag, {Patient: Insurer});
  }
}
"""


def hosts() -> TrustConfiguration:
    config = TrustConfiguration(
        [
            # The lab's machine: sees lab-readable patient data, and the
            # patient + lab trust data it produces.
            HostDescriptor.of(
                "LabHost", "{Patient: Lab, Clinic; Lab:}",
                "{?:Patient, Lab}",
            ),
            # The clinic's machine: cleared for anything the clinic may
            # read; the patient trusts it to run the diagnosis.
            HostDescriptor.of(
                "ClinicHost", "{Patient:; Clinic:}", "{?:Patient, Clinic}"
            ),
            # The insurer's machine: may only ever see what the patient
            # explicitly releases to insurers.
            HostDescriptor.of(
                "InsurerHost", "{Patient: Insurer; Insurer:}", "{?:Insurer}"
            ),
        ]
    )
    config.pin_field("MedicalRecords", "testA", "LabHost")
    config.pin_field("MedicalRecords", "testB", "LabHost")
    return config


def main() -> None:
    config = hosts()
    result = split_source(SOURCE, config)
    split = result.split

    print("Placement:")
    for placement in split.fields.values():
        print(f"  {placement.cls}.{placement.field}{placement.label} "
              f"-> {placement.host} (readable by "
              f"{', '.join(sorted(placement.readers))})")

    session = Session(RuntimeImage.for_split(split))
    outcome = session.run()
    print(f"\ndiagnosis score: "
          f"{outcome.field_value('MedicalRecords', 'diagnosisScore')}")
    print(f"insurer sees only: eligible = "
          f"{outcome.field_value('MedicalRecords', 'eligible')}")
    print(f"messages: {outcome.counts['total_messages']}")

    insurer = Adversary(session, "InsurerHost")
    print("\nThe insurer's machine goes fishing for raw data:")
    print(" ", insurer.try_get_field("MedicalRecords", "testA"))
    print(" ", insurer.try_get_field("MedicalRecords", "diagnosisScore"))
    assert insurer.all_rejected()
    print("the insurer learns the flag and nothing else.")

    print("\nAnd if the patient does NOT authorize the release?")
    try:
        split_source(SOURCE.replace("where authority(Patient) ", ""), config)
    except Exception as error:  # AuthorityError from the checker
        print(f"rejected at compile time: {error}")


if __name__ == "__main__":
    main()
