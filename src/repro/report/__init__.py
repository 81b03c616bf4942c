"""The paper table: what the paper claims (:mod:`repro.report.paper_table`)
and the evaluator that measures it (:mod:`repro.report.paper`)."""
