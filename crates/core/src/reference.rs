//! Oracle-only slicers: the dense round-based Figure-7 loop behind the
//! production entry points' signatures. The differential harness's
//! `sparse` mode and the equivalence tests hold the sparse kernel against
//! these; nothing in the slicing pipeline calls them.

use crate::agrawal::figure7_reference;
use crate::provenance::{Provenance, Recorder};
use crate::{Analysis, Criterion, Slice};

/// [`crate::agrawal_slice`] through the dense round-based Figure-7 loop,
/// kept verbatim as the differential baseline for the sparse kernel, which
/// must be bit-identical to it. Driven by the pdom preorder, like
/// `agrawal_slice`.
///
/// # Examples
///
/// ```
/// use jumpslice_core::reference::agrawal_slice_reference;
/// use jumpslice_core::{agrawal_slice, corpus, Analysis, Criterion};
/// let p = corpus::fig3();
/// let a = Analysis::new(&p);
/// let crit = Criterion::at_stmt(p.at_line(15));
/// assert_eq!(agrawal_slice(&a, &crit), agrawal_slice_reference(&a, &crit));
/// ```
pub fn agrawal_slice_reference(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let order = a.jumps_in_pdom_preorder();
    figure7_reference(a, crit, &order, None)
}

/// [`crate::agrawal_slice_traced`] through the dense round-based loop
/// ([`agrawal_slice_reference`]) instead of the sparse kernel. The
/// differential harness's `sparse` mode holds the two traced slicers
/// against each other statement-by-statement.
pub fn agrawal_slice_traced_reference(a: &Analysis<'_>, crit: &Criterion) -> (Slice, Provenance) {
    let order = a.jumps_in_pdom_preorder();
    let mut rec = Recorder::new(a.prog().len());
    let slice = figure7_reference(a, crit, &order, Some(&mut rec));
    let prov = rec.finish(crit);
    (slice, prov)
}
